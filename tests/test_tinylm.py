"""Tabular LM fitting, the tilt head, tempered next-token inference, and the
metric stack."""

import math

import numpy as np
import pytest

from t3 import tinylm as tl
from t3._kernels import logistic_loss, sigmoid


@pytest.fixture(scope="module")
def corpus():
    return tl.demo_corpus()


@pytest.fixture(scope="module")
def lm(corpus):
    return tl.fit_lm(corpus.all_docs(), order=2, smoothing=1e-3, vocab=corpus.vocab)


def _zero_head(v, order, hidden):
    return tl.HeadClassifier(np.zeros((hidden, v * order)), np.zeros((v, hidden)))


@pytest.fixture(scope="module")
def trained_head(corpus, lm):
    stream = tl.head_training_stream(corpus, 2)
    return tl.train_head(lm, stream, lam=1e-4, epochs=100, rng=np.random.default_rng(0), hidden=16)


@pytest.fixture(scope="module")
def reference(corpus):
    return tl.fit_lm(corpus.docs("retain") + corpus.docs("ra") + corpus.docs("wf"), 2, 1e-3, corpus.vocab)


class TestCorpus:
    def test_demo_shape(self, corpus):
        assert len(corpus.vocab) <= 64
        assert len(corpus.pairs("retain")) == 16
        assert len(corpus.pairs("forget")) == 16
        assert corpus.pairs("ra") and corpus.pairs("wf")

    def test_retain_forget_answers_disjoint(self, corpus):
        retain_tokens = {t for qa in corpus.pairs("retain") for t in qa.answer}
        forget_tokens = {t for qa in corpus.pairs("forget") for t in qa.answer}
        assert not retain_tokens & forget_tokens

    def test_every_pair_has_perturbed(self, corpus):
        for split in tl.SPLITS:
            for qa in corpus.pairs(split):
                assert len(qa.perturbed) >= 1

    def test_roundtrip_through_file(self, corpus, tmp_path):
        path = tmp_path / "corpus.tsv"
        tl.save_corpus(corpus, path)
        loaded = tl.load_corpus(path)
        assert loaded.splits == corpus.splits
        assert loaded.vocab == corpus.vocab

    def test_load_keeps_first_seen_file_order(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text(
            "forget\tq z\tb\tb c\ta\nretain\tq y\ta\ta c\tb|z\nwf\tq\ta\ta\tb\nra\ty\tb\tb\ta\n",
            encoding="utf-8",
        )
        loaded = tl.load_corpus(path)
        assert loaded.vocab == ("q", "z", "b", "c", "a", "y")
        assert list(loaded.splits) == ["forget", "retain", "wf", "ra"]

    def test_load_rejects_empty_splits_by_name(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("forget\tq z\tb\tb c\ta\nretain\tq y\ta\ta c\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no pairs in split ra, wf$"):
            tl.load_corpus(path)

    def test_rejects_oversized_vocab(self):
        vocab = tuple(f"t{i}" for i in range(65))
        with pytest.raises(ValueError):
            tl.TinyCorpus(vocab=vocab, splits={})


class TestFitLM:
    def test_count_arithmetic_single_doc(self):
        alpha = 0.5
        lm = tl.fit_lm([("a", "b", "a", "b")], order=1, smoothing=alpha, vocab=("a", "b"))
        row = lm.next_dist(("a",))
        # P(b|a) = (2 + alpha) / (2 + alpha * |V|)
        np.testing.assert_allclose(row[1], (2 + alpha) / (2 + alpha * 2), rtol=1e-12)

    def test_uniform_smoothing_limit(self):
        lm = tl.fit_lm([("a", "b", "a", "b")], order=1, smoothing=1e9, vocab=("a", "b"))
        np.testing.assert_allclose(lm.next_dist(("a",)), [0.5, 0.5], atol=1e-9)

    def test_rows_sum_to_one(self, corpus, lm):
        for qa in corpus.pairs("retain")[:8]:
            row = lm._row(lm._ctx_ids(qa.question))
            assert abs(float(row.sum()) - 1.0) <= 1e-12
            assert np.all(row > 0)

    def test_rejects_empty_docs(self):
        with pytest.raises(ValueError):
            tl.fit_lm([], order=1, smoothing=0.1, vocab=("a",))

    @pytest.mark.parametrize("order", [1, 2])
    def test_rejects_a_token_outside_the_vocab_naming_the_doc(self, order):
        docs = [("a", "b"), ("b", "a"), ("a", "zz", "b")]
        with pytest.raises(ValueError, match=r"^doc 2: token 'zz' is not in the vocab$"):
            tl.fit_lm(docs, order=order, smoothing=0.1, vocab=("a", "b"))


def test_rejects_out_of_domain_settings(corpus, lm):
    for smoothing in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="smoothing"):
            tl.TabularLM(("a",), 1, smoothing)
    stream = tl.head_training_stream(corpus, 2)
    for kwargs, name in (
        ({"hidden": 0}, "hidden"),
        ({"epochs": 0}, "epochs"),
        ({"lam": math.nan}, "lam"),
        ({"lam": -5.0}, "lam"),
        ({"lam": math.inf}, "lam"),
    ):
        with pytest.raises(ValueError, match=name):
            tl.train_head(lm, stream, **kwargs)


class TestHead:
    def test_zero_head_predicts_half(self, corpus, lm):
        head = _zero_head(len(corpus.vocab), 2, 8)
        assert np.all(head.scores(lm._ctx_ids(("where", "does"))) == 0.5)

    def test_feature_dimension_and_scale(self, corpus, lm):
        f = tl.feature(lm._ctx_ids(("where", "does")), len(corpus.vocab))
        assert f.shape == (len(corpus.vocab) * 2,)
        np.testing.assert_allclose(f.sum(), 1.0)  # two blocks at 1/2 each

    def test_bos_padding_gives_partial_feature(self, corpus, lm):
        f = tl.feature(lm._ctx_ids(("where",)), len(corpus.vocab))
        np.testing.assert_allclose(f.sum(), 0.5)

    def test_huge_lambda_shrinks(self, corpus, lm):
        stream = tl.head_training_stream(corpus, 2)
        head = tl.train_head(lm, stream, lam=1e6, epochs=100, rng=np.random.default_rng(0), hidden=16)
        assert np.linalg.norm(head.a) <= 1e-2 and np.linalg.norm(head.b) <= 1e-2

    def test_separable_vocabularies_train_apart(self):
        retain = [tl.QAPair(("aa", "bb"), ("cc",), ("cc", "dd"), (("dd",),)),
                  tl.QAPair(("bb", "aa"), ("dd",), ("dd", "cc"), (("cc",),))]
        forget = [tl.QAPair(("ee", "ff"), ("gg",), ("gg", "hh"), (("hh",),)),
                  tl.QAPair(("ff", "ee"), ("hh",), ("hh", "gg"), (("gg",),))]
        mini = tl.TinyCorpus(
            vocab=("aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"),
            splits={"retain": tuple(retain), "forget": tuple(forget)},
        )
        lm2 = tl.fit_lm(mini.all_docs(), 2, 1e-3, mini.vocab)
        stream = tl.head_training_stream(mini, 2)
        head = tl.train_head(lm2, stream, lam=1e-4, epochs=100, rng=np.random.default_rng(1), hidden=8)
        # judged at positions with a nonempty context; the all-BOS feature is
        # identically zero and cannot carry a label
        def score(c, y):
            return float(head.scores(lm2._ctx_ids(c))[lm2.token_id[y]])

        forget_preds = [score(c, y) for c, y, s in stream if s == 0 and c]
        retain_preds = [score(c, y) for c, y, s in stream if s == 1 and c]
        assert max(forget_preds) < 0.1
        assert min(retain_preds) > 0.9


def _eager_train_head(lm, stream, lam, epochs, rng, hidden):
    """The head trainer written the direct way: loss and gradient together at
    every trial step, accepted or not.  Returns (A, B)."""
    v = len(lm.vocab)
    a = rng.normal(0.0, 0.3, size=(hidden, v * lm.order))
    b = rng.normal(0.0, 0.3, size=(v, hidden))
    feats = np.stack([tl.feature(lm._ctx_ids(ctx), v) for ctx, _, _ in stream])
    y_idx = np.array([lm.token_id[y] for _, y, _ in stream])
    s = np.array([float(lbl) for _, _, lbl in stream])
    n = len(stream)
    rows = np.arange(n)

    def objective(a_m, b_m):
        logits_full = feats @ a_m.T @ b_m.T
        loss = logistic_loss(logits_full[rows, y_idx], s)
        sig = sigmoid(logits_full[rows, y_idx])
        value = loss + lam * (float(np.sum(a_m * a_m)) + float(np.sum(b_m * b_m)))
        g_logit = np.zeros((n, v))
        g_logit[rows, y_idx] = (sig - s) / n
        p = feats @ a_m.T
        grad_b = g_logit.T @ p + 2.0 * lam * b_m
        grad_a = (g_logit @ b_m).T @ feats + 2.0 * lam * a_m
        return value, grad_a, grad_b

    value, grad_a, grad_b = objective(a, b)
    step = 1.0
    for _ in range(epochs):
        slope = -(float(np.sum(grad_a * grad_a)) + float(np.sum(grad_b * grad_b)))
        if slope > -1e-18:
            break
        step *= 4.0
        accepted = False
        for _bt in range(80):
            a_new = a - step * grad_a
            b_new = b - step * grad_b
            v_new, ga_new, gb_new = objective(a_new, b_new)
            if v_new <= value + 1e-4 * step * slope:
                a, b, value, grad_a, grad_b = a_new, b_new, v_new, ga_new, gb_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return a, b


# the perfbench gate trains head seeds 1000 * instance + i, i < 4
GATE_SEEDS = [1000 * k + i for k in (0, 7) for i in range(4)]


@pytest.mark.parametrize(
    "order, hidden, seed, distinct",
    [pytest.param(2, 16, seed, False, id=str(seed)) for seed in GATE_SEEDS]
    + [
        pytest.param(1, 16, 0, False, id="order1"),
        pytest.param(2, 1, 0, False, id="hidden1"),
        pytest.param(2, 16, 0, True, id="distinct-contexts"),
    ],
)
def test_train_head_matches_the_eager_gradient_loop_bitwise(corpus, order, hidden, seed, distinct):
    # train_head takes the gradient only at accepted points and runs the
    # forward pass once per distinct context; the weights it returns must be
    # the eager dense per-row loop's, bit for bit
    lm = tl.fit_lm(corpus.all_docs(), order=order, smoothing=1e-3, vocab=corpus.vocab)
    stream = tl.head_training_stream(corpus, order)
    if distinct:  # the first row of each context: no context repeats
        firsts = {}
        for row in stream:
            firsts.setdefault(lm._ctx_ids(row[0]), row)
        stream = list(firsts.values())
    head = tl.train_head(lm, stream, lam=1e-4, epochs=100, rng=np.random.default_rng(seed), hidden=hidden)
    a, b = _eager_train_head(lm, stream, 1e-4, 100, np.random.default_rng(seed), hidden)
    assert head.a.tobytes() == a.tobytes() and head.b.tobytes() == b.tobytes()


def test_train_head_rejects_a_bad_stream_before_any_work(corpus, lm):
    stream = tl.head_training_stream(corpus, 2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="stream must be nonempty"):
        tl.train_head(lm, [], rng=rng)
    for bad in (2, math.nan, 0.5, -1):
        rows = list(stream)
        rows[3] = rows[3][:2] + (bad,)
        rows[7] = rows[7][:2] + (2,)
        with pytest.raises(ValueError, match=r"stream row 3: label must be 0 or 1, got " + repr(bad)):
            tl.train_head(lm, rows, rng=rng)
    for field, row in (("context", (("where", "zz"), "york", 1)), ("target", (("where",), "zz", 1))):
        rows = list(stream)
        rows[3] = row
        with pytest.raises(ValueError, match=rf"^stream row 3: {field} token 'zz' is not in the vocab$"):
            tl.train_head(lm, rows, rng=rng)
    assert rng.bit_generator.state == state  # no weights were drawn


class TestTiltedNextToken:
    def test_constant_tilt_t1_identity_bitwise(self, corpus, lm):
        zero = _zero_head(len(corpus.vocab), 2, 8)
        for qa in corpus.pairs("retain")[:6]:
            out = tl.tilted_next_token(lm, zero, qa.question, 1.0)
            assert np.array_equal(out, lm.next_dist(qa.question))

    def test_flattening_limit(self):
        class FakeLM:
            vocab = ("x", "y", "z")
            order = 1

            def _ctx_ids(self, c):
                return (0,)

            def _row(self, ctx):
                return np.array([0.7, 0.2, 0.1])

        class ConstHead:
            def scores(self, ctx):
                return np.full(3, 0.4)

        out = tl.tilted_next_token(FakeLM(), ConstHead(), ("x",), 1e12)
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-9)

    def test_hand_worked_three_tokens(self):
        class FakeLM:
            vocab = ("x", "y", "z")
            order = 1

            def _ctx_ids(self, c):
                return (0,)

            def _row(self, ctx):
                return np.array([0.7, 0.2, 0.1])

        class Head:
            def scores(self, ctx):
                return np.array([0.01, 0.9, 0.9])

        out = tl.tilted_next_token(FakeLM(), Head(), ("x",), 1.0)
        # renormalize (0.007, 0.18, 0.09) by hand
        np.testing.assert_allclose(
            out, [0.007 / 0.277, 0.18 / 0.277, 0.09 / 0.277], rtol=1e-12
        )

    def test_sums_to_one(self, corpus, lm, trained_head):
        for qa in corpus.pairs("retain")[:4] + corpus.pairs("forget")[:4]:
            for T in (1.0, 1.5, 2.0, 3.0):
                w = tl.tilted_next_token(lm, trained_head, qa.question, T)
                assert abs(float(w.sum()) - 1.0) <= 1e-12

    def test_rejects_t_below_one(self, corpus, lm, trained_head):
        with pytest.raises(ValueError):
            tl.tilted_next_token(lm, trained_head, ("where",), 0.5)


class TestTruthRatio:
    def _view(self, probs_by_answer):
        # a model that deterministically emits fixed per-token probabilities
        class V:
            pass

        return probs_by_answer

    def test_zero_when_true_answer_certain(self):
        view = tl.ModelView(("q", "a", "b"), lambda ctx: np.array([0.0, 1.0, 0.0]))
        qa = tl.QAPair(("q",), ("a",), ("a",), (("b",),))
        assert tl.truth_ratio(view, qa) == 0.0

    def test_one_when_equally_likely(self):
        view = tl.ModelView(("q", "a", "b"), lambda ctx: np.array([0.2, 0.4, 0.4]))
        qa = tl.QAPair(("q",), ("a",), ("a",), (("b",),))
        np.testing.assert_allclose(tl.truth_ratio(view, qa), 1.0, rtol=1e-12)

    def test_hand_arithmetic(self):
        # two perturbed with length-normalized probs 0.2, 0.4; true 0.5
        def dist(ctx):
            return np.array([0.0, 0.5, 0.2, 0.4])

        view = tl.ModelView(("q", "a", "p1", "p2"), dist)
        qa = tl.QAPair(("q",), ("a",), ("a",), (("p1",), ("p2",)))
        np.testing.assert_allclose(tl.truth_ratio(view, qa), 0.3 / 0.5, rtol=1e-12)


class TestTrPlus:
    @pytest.mark.parametrize("r,expected", [(1.0, 0.0), (0.5, 0.5), (3.0, 0.0)])
    def test_values(self, r, expected):
        assert tl.tr_plus(r) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tl.tr_plus(-0.1)


class TestRougeL:
    def test_identical(self):
        assert tl.rouge_l_recall(("a", "b", "c"), ("a", "b", "c")) == 1.0

    def test_partial_against_brute_force(self):
        gen = ("cat",)
        ref = ("the", "cat", "sat")
        np.testing.assert_allclose(tl.rouge_l_recall(gen, ref), 1.0 / 3.0, rtol=1e-15)

    def test_empty_generation(self):
        assert tl.rouge_l_recall((), ("a",)) == 0.0

    def test_matches_brute_force_enumeration(self):
        # exhaustive LCS over all subsequences of the shorter sequence
        import itertools

        rng = np.random.default_rng(3)
        alphabet = list("abcd")
        for _ in range(25):
            gen = tuple(rng.choice(alphabet) for _ in range(int(rng.integers(1, 7))))
            ref = tuple(rng.choice(alphabet) for _ in range(int(rng.integers(1, 7))))
            best = 0
            for r in range(len(gen), 0, -1):
                for sub in itertools.combinations(gen, r):
                    # is sub a subsequence of ref?
                    it = iter(ref)
                    if all(tok in it for tok in sub):
                        best = r
                        break
                if best:
                    break
            np.testing.assert_allclose(tl.rouge_l_recall(gen, ref), best / len(ref), rtol=1e-15)


class TestForgetQuality:
    def test_identical_samples(self):
        d, p = tl.forget_quality([0.3, 0.5, 0.2], [0.3, 0.5, 0.2])
        assert d == 0.0 and p == 1.0

    def test_fully_separated_samples(self):
        d, p = tl.forget_quality([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert d == 1.0
        np.testing.assert_allclose(p, 2.0 * math.exp(-3.0), rtol=1e-12)

    def test_ks_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.normal(size=int(rng.integers(2, 40)))
            b = rng.normal(size=int(rng.integers(2, 40)))
            d = tl.ks_statistic(a, b)
            pooled = np.concatenate([a, b])
            brute = max(abs(float(np.mean(a <= t)) - float(np.mean(b <= t))) for t in pooled)
            assert abs(d - brute) <= 1e-15


class TestModelUtility:
    def test_all_ones(self):
        mu, mur = tl.model_utility({s: (1.0, 1.0, 1.0) for s in ("retain", "ra", "wf")})
        assert mu == 1.0 and mur == 1.0

    def test_zero_annihilates(self):
        triples = {"retain": (0.0, 1.0, 1.0), "ra": (1.0, 1.0, 1.0), "wf": (1.0, 1.0, 1.0)}
        mu, mur = tl.model_utility(triples)
        assert mu == 0.0 and mur == 1.0

    def test_harmonic_mean_arithmetic(self):
        np.testing.assert_allclose(tl.harmonic_mean([0.5, 1.0, 1.0]), 0.75, rtol=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tl.harmonic_mean([1.5])


class TestProbabilityMetric:
    def test_repeat_invariance_with_constant_per_token_probs(self):
        row = np.array([0.6, 0.3, 0.1])
        view = tl.ModelView(("q", "a", "b"), lambda ctx: row)
        base = tl.probability_metric(view, tl.QAPair(("q",), ("a",), ("a",), (("b",),)))
        for k in (2, 3, 5):
            qa = tl.QAPair(("q",), ("a",) * k, ("a",), (("b",),))
            np.testing.assert_allclose(tl.probability_metric(view, qa), base, rtol=1e-12)

    def test_normalized_variant(self):
        row = np.array([0.0, 0.5, 0.25, 0.25])
        view = tl.ModelView(("q", "a", "p1", "p2"), lambda ctx: row)
        qa = tl.QAPair(("q",), ("a",), ("a",), (("p1",), ("p2",)))
        plain = tl.probability_metric(view, qa)
        np.testing.assert_allclose(plain, 0.5, rtol=1e-12)
        normalized = tl.probability_metric(view, qa, normalized=True)
        np.testing.assert_allclose(normalized, 0.5 / (0.5 + 0.5 + 1e-10), rtol=1e-9)


class TestUnlearningBehavior:
    def test_forget_answers_suppressed_retain_decodes_stable(self, corpus, lm, trained_head):
        base = tl.ModelView(lm.vocab, lm.next_dist)
        tilted = tl.ModelView(lm.vocab, lambda ctx: tl.tilted_next_token(lm, trained_head, ctx, 2.0))
        for qa in corpus.pairs("forget"):
            ratio = base.lennorm_prob(qa.question, qa.answer) / tilted.lennorm_prob(
                qa.question, qa.answer
            )
            assert ratio >= 10.0
        unchanged = [
            tilted.greedy_decode(qa.question, len(qa.answer))
            == base.greedy_decode(qa.question, len(qa.answer))
            for qa in corpus.pairs("retain")
        ]
        assert sum(unchanged) / len(unchanged) >= 0.9

    def test_report_runs_end_to_end(self, corpus, lm, trained_head, reference):
        rep = tl.unlearning_report(lm, trained_head, corpus, 2.0, reference)
        assert 0.0 <= rep["forget_quality"] <= 1.0
        assert 0.0 <= rep["model_utility"] <= 1.0
        assert rep["mu_rouge"] == 1.0
        assert rep["min_forget_prob_reduction"] >= 10.0
        assert rep["retain_greedy_unchanged"] >= 0.9

    def test_report_evaluates_each_context_once_per_model(
        self, corpus, lm, trained_head, reference, monkeypatch
    ):
        calls = []
        tilted, untilted = tl.tilted_next_token, tl.TabularLM.next_dist

        def counted_tilted(lm_, head, context, T):
            calls.append(("tilted", lm_._ctx_ids(context)))
            return tilted(lm_, head, context, T)

        def counted_next_dist(self, context):
            calls.append((id(self), self._ctx_ids(context)))
            return untilted(self, context)

        monkeypatch.setattr(tl, "tilted_next_token", counted_tilted)
        monkeypatch.setattr(tl.TabularLM, "next_dist", counted_next_dist)
        first = tl.unlearning_report(lm, trained_head, corpus, 2.0, reference)
        n_first = len(calls)
        assert n_first and len(set(calls)) == n_first
        assert {model for model, _ in calls} == {"tilted", id(lm), id(reference)}
        # nothing carries over: a second report evaluates the same contexts
        # again and gives the same table
        assert tl.unlearning_report(lm, trained_head, corpus, 2.0, reference) == first
        assert calls[n_first:] == calls[:n_first]
