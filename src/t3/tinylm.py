"""A desk-scale tabular autoregressive model with tempered-tilt inference.

The pieces mirror the token-level unlearning recipe at the smallest scale
that still exercises it end to end: a frozen count-based conditional table
stands in for the pretrained model, a low-rank sigmoid head plays the tilt
classifier, and inference reweights the tempered next-token distribution by
the head's per-token scores.  ``TabularLM._ctx_ids`` turns a context into the
base model's BOS-padded ids; the table looks its row up by them and the head,
which holds only its two weight matrices, scores their pooled one-hot
``feature``.  The metric stack (truth ratio, KS-based forget quality, ROUGE-L
recall, length-normalized probability, harmonic-mean utilities) scores the
result against a retain-only retrained reference.  A next-token row and a
head score depend on the context only through its ids, so a report evaluates
each distinct context once per model, and head training runs its forward pass
once per distinct context; the trained weights are bit-identical to the dense
per-row loop (see ``train_head`` for the BLAS assumption and its test).

Corpus file format: one document per line,
``split<TAB>question<TAB>answer<TAB>paraphrase<TAB>pert1|pert2|...``
with whitespace-separated tokens inside each field and
split in {retain, forget, ra, wf}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from ._kernels import check_temperature, logistic_loss, sigmoid

BOS = -1  # context padding sentinel, never a real token id
SPLITS = ("retain", "forget", "ra", "wf")
MC_PROB_EPS = 1e-10  # stabilizer in the multiple-choice probability metric
HEAD_CLAMP = 1e-12

Tokens = tuple[str, ...]


@dataclass(frozen=True)
class QAPair:
    question: Tokens
    answer: Tokens
    paraphrase: Tokens
    perturbed: tuple[Tokens, ...]

    def __post_init__(self):
        if not (self.question and self.answer and self.paraphrase):
            raise ValueError("question, answer, and paraphrase must be nonempty")
        if len(self.perturbed) < 1 or any(not p for p in self.perturbed):
            raise ValueError("need at least one nonempty perturbed answer")


@dataclass(frozen=True)
class TinyCorpus:
    vocab: Tokens
    splits: Dict[str, tuple[QAPair, ...]]

    def __post_init__(self):
        if len(self.vocab) > 64:
            raise ValueError(f"vocab too large: {len(self.vocab)} > 64")
        if len(set(self.vocab)) != len(self.vocab):
            raise ValueError("vocab has duplicates")
        known = set(self.vocab)
        for split, pairs in self.splits.items():
            if split not in SPLITS:
                raise ValueError(f"unknown split {split!r}")
            for qa in pairs:
                for seq in (qa.question, qa.answer, qa.paraphrase, *qa.perturbed):
                    missing = set(seq) - known
                    if missing:
                        raise ValueError(f"tokens outside vocab in {split}: {missing}")

    def pairs(self, split: str) -> tuple[QAPair, ...]:
        return self.splits.get(split, ())

    def docs(self, split: str) -> list[Tokens]:
        """Training documents for a split: question+answer and
        question+paraphrase for every pair."""
        return [qa.question + doc for qa in self.pairs(split) for doc in (qa.answer, qa.paraphrase)]

    def all_docs(self) -> list[Tokens]:
        return [doc for split in SPLITS for doc in self.docs(split)]


def save_corpus(corpus: TinyCorpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for split in SPLITS:
            for qa in corpus.pairs(split):
                fields = [" ".join(seq) for seq in (qa.question, qa.answer, qa.paraphrase)]
                perturbed = "|".join(" ".join(p) for p in qa.perturbed)
                fh.write("\t".join([split, *fields, perturbed]) + "\n")


def _corpus(items: Iterable[tuple[str, QAPair]]) -> TinyCorpus:
    """A corpus from (split, pair) items; the vocab lists every token in the
    order the items first use it.  Every split of SPLITS must have a pair,
    since the unlearning report evaluates each one."""
    splits: Dict[str, list[QAPair]] = {}
    vocab: Dict[str, None] = {}
    for split, qa in items:
        splits.setdefault(split, []).append(qa)
        for seq in (qa.question, qa.answer, qa.paraphrase, *qa.perturbed):
            vocab.update(dict.fromkeys(seq))
    corpus = TinyCorpus(vocab=tuple(vocab), splits={k: tuple(v) for k, v in splits.items()})
    empty = [split for split in SPLITS if split not in splits]
    if empty:
        raise ValueError(f"corpus has no pairs in split {', '.join(empty)}")
    return corpus


def load_corpus(path) -> TinyCorpus:
    def items() -> Iterator[tuple[str, QAPair]]:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 5:
                    raise ValueError(f"{path}:{line_no}: expected 5 tab-separated fields")
                split, q, a, para, perts = parts
                if split not in SPLITS:
                    raise ValueError(f"{path}:{line_no}: unknown split {split!r}")
                try:
                    qa = QAPair(
                        question=tuple(q.split()),
                        answer=tuple(a.split()),
                        paraphrase=tuple(para.split()),
                        perturbed=tuple(tuple(p.split()) for p in perts.split("|")),
                    )
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
                yield split, qa

    return _corpus(items())


# ---------------------------------------------------------------------------
# the frozen base model
# ---------------------------------------------------------------------------

class TabularLM:
    """Order-m conditional table P(y | last m tokens) with additive
    smoothing; rows are exact count ratios, frozen after fitting."""

    def __init__(self, vocab: Tokens, order: int, smoothing: float):
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if not 0.0 < smoothing < math.inf:
            raise ValueError(f"smoothing must be finite and > 0, got {smoothing}")
        self.vocab = tuple(vocab)
        self.order = order
        self.smoothing = float(smoothing)
        self.token_id = {t: i for i, t in enumerate(self.vocab)}
        self._counts: Dict[tuple[int, ...], np.ndarray] = {}

    def _ctx_ids(self, context: Sequence[str]) -> tuple[int, ...]:
        """The ids of the last ``order`` context tokens, left-padded with BOS."""
        try:
            ids = [self.token_id[t] for t in context]
        except KeyError as exc:
            raise ValueError(f"context token {exc.args[0]!r} is not in the vocab") from None
        return tuple([BOS] * max(0, self.order - len(ids)) + ids[-self.order :])

    def _row(self, ctx: tuple[int, ...]) -> np.ndarray:
        """Smoothed conditional row; sums to 1 up to rounding."""
        v = len(self.vocab)
        counts = self._counts.get(ctx)
        if counts is None:
            counts = np.zeros(v)
        total = counts.sum()
        return (counts + self.smoothing) / (total + self.smoothing * v)

    def next_dist(self, context: Sequence[str]) -> np.ndarray:
        row = self._row(self._ctx_ids(context))
        return row / row.sum()


def fit_lm(docs: Sequence[Sequence[str]], order: int, smoothing: float, vocab: Tokens) -> TabularLM:
    """Maximum-likelihood counts over the documents with additive smoothing;
    contexts shorter than the order are padded with a BOS sentinel."""
    if not docs:
        raise ValueError("docs must be nonempty")
    lm = TabularLM(vocab, order, smoothing)
    v = len(vocab)
    for j, doc in enumerate(docs):
        for i, y in enumerate(doc):
            # each context token was an earlier target, so this checks them too
            if y not in lm.token_id:
                raise ValueError(f"doc {j}: token {y!r} is not in the vocab")
            key = lm._ctx_ids(doc[:i])
            if key not in lm._counts:
                lm._counts[key] = np.zeros(v)
            lm._counts[key][lm.token_id[y]] += 1.0
    return lm


# ---------------------------------------------------------------------------
# the tilt head
# ---------------------------------------------------------------------------

def feature(ctx_ids: Sequence[int], v: int) -> np.ndarray:
    """Pooled one-hot encoding of padded context ids: one |V| block per
    position, each scaled 1/order; BOS positions stay zero."""
    order = len(ctx_ids)
    out = np.zeros(v * order)
    for j, tid in enumerate(ctx_ids):
        if tid != BOS:
            out[j * v + tid] = 1.0 / order
    return out


class HeadClassifier:
    """Low-rank sigmoid head g(x) = sigmoid(B @ A @ feature(x)) with A of
    shape (hidden, |V| * order) and B of shape (|V|, hidden)."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        if a.ndim != 2 or b.ndim != 2 or b.shape[1] != a.shape[0] or a.shape[1] % len(b):
            raise ValueError(f"shape mismatch: A {a.shape}, B {b.shape}")
        self.a = a
        self.b = b

    def scores(self, ctx_ids: Sequence[int]) -> np.ndarray:
        """g(x): per-token retain probabilities in (0, 1)^|V|."""
        return sigmoid(self.b @ (self.a @ feature(ctx_ids, len(self.b))))


def head_training_stream(corpus: TinyCorpus, order: int) -> list[tuple[Tokens, str, int]]:
    """Per-token (context, target, label) triples: label 1 for retain-doc
    tokens, 0 for forget-doc tokens."""
    stream = []
    for label, docs in ((1, corpus.docs("retain")), (0, corpus.docs("forget"))):
        for doc in docs:
            for i, y in enumerate(doc):
                stream.append((tuple(doc[:i]), y, label))
    return stream


def train_head(
    lm: TabularLM,
    stream: Sequence[tuple[Sequence[str], str, int]],
    lam: float = 1e-4,
    epochs: int = 100,
    rng: Optional[np.random.Generator] = None,
    hidden: int = 16,
) -> HeadClassifier:
    """Fit the low-rank head by full-batch gradient descent with Armijo
    backtracking on mean cross-entropy of the scalar [g(x)]_y plus
    lam * (|A|_F^2 + |B|_F^2).

    A row's logit depends on its context only through ``lm._ctx_ids``, so
    the forward pass runs once per distinct context (the demo stream has 82
    in 400 rows) and each row gathers its one logit from that block.  The
    weights are bit-identical to the dense per-row loop: a feature row has
    at most ``order`` nonzeros of 1/order, so F @ A.T rounds once in any
    order, and each entry of P @ B.T depends only on its own row, which
    BLAS is assumed to compute alike for any row count.  The two gradient
    products that sum over rows keep all n rows and their shapes.
    ``test_train_head_matches_the_eager_gradient_loop_bitwise`` guards this.
    """
    if hidden < 1 or epochs < 1:
        raise ValueError(f"hidden and epochs must be >= 1, got {hidden} and {epochs}")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if not stream:
        raise ValueError("stream must be nonempty")
    for i, (ctx, y, lbl) in enumerate(stream):
        if lbl not in (0, 1):
            raise ValueError(f"stream row {i}: label must be 0 or 1, got {lbl!r}")
        for field, tokens in (("context", ctx), ("target", (y,))):
            for tok in tokens:
                if tok not in lm.token_id:
                    raise ValueError(f"stream row {i}: {field} token {tok!r} is not in the vocab")
    rng = rng or np.random.default_rng(0)
    v = len(lm.vocab)
    a = rng.normal(0.0, 0.3, size=(hidden, v * lm.order))
    b = rng.normal(0.0, 0.3, size=(v, hidden))

    # ci[r]: the index of row r's context among the distinct ones
    distinct: Dict[tuple[int, ...], int] = {}
    ci = np.array([distinct.setdefault(lm._ctx_ids(ctx), len(distinct)) for ctx, _, _ in stream])
    feats_u = np.stack([feature(ids, v) for ids in distinct])
    feats = feats_u[ci]
    y_idx = np.array([lm.token_id[y] for _, y, _ in stream])
    s = np.array([float(lbl) for _, _, lbl in stream])
    n = len(stream)
    rows = np.arange(n)

    def loss(a_m, b_m):
        """The objective at (a_m, b_m), with the per-context hidden
        activations p_u and the row logits t that its gradient reuses."""
        p_u = feats_u @ a_m.T  # (contexts, h)
        t = (p_u @ b_m.T)[ci, y_idx]
        value = logistic_loss(t, s) + lam * (float(np.sum(a_m * a_m)) + float(np.sum(b_m * b_m)))
        return value, p_u, t

    def gradient(a_m, b_m, p_u, t):
        g = (sigmoid(t) - s) / n
        g_logit = np.zeros((n, v))
        g_logit[rows, y_idx] = g
        grad_b = g_logit.T @ p_u[ci] + 2.0 * lam * b_m
        # g_logit @ b_m has the one nonzero term per row: gather it exactly
        grad_a = (g[:, None] * b_m[y_idx]).T @ feats + 2.0 * lam * a_m
        return grad_a, grad_b

    # trial steps only need the loss; the gradient is taken once per epoch,
    # at the point the previous epoch accepted
    value, p_u, t = loss(a, b)
    step = 1.0
    for _ in range(epochs):
        grad_a, grad_b = gradient(a, b, p_u, t)
        slope = -(float(np.sum(grad_a * grad_a)) + float(np.sum(grad_b * grad_b)))
        if slope > -1e-18:
            break
        step *= 4.0  # let the accepted step grow; backtracking reins it in
        for _bt in range(80):
            a_new = a - step * grad_a
            b_new = b - step * grad_b
            v_new, p_new, t_new = loss(a_new, b_new)
            if v_new <= value + 1e-4 * step * slope:
                a, b, value, p_u, t = a_new, b_new, v_new, p_new, t_new
                break
            step *= 0.5
        else:
            break
    return HeadClassifier(a, b)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def tilted_next_token(
    lm: TabularLM, head: HeadClassifier, context: Sequence[str], T: float
) -> np.ndarray:
    """Next-token distribution proportional to P(y|x)^(1/T) * g(x)_y with the
    head clamped to [1e-12, 1].

    At T = 1 the exponent is exactly 1.0 and IEEE pow(x, 1.0) returns x
    exactly, so a constant head cancels in the renormalization and the
    output reproduces the base distribution bit for bit.
    """
    check_temperature(T)
    ids = lm._ctx_ids(context)
    row = lm._row(ids)
    g = np.clip(head.scores(ids), HEAD_CLAMP, 1.0)
    w = row ** (1.0 / T) * g
    return w / w.sum()


@dataclass(frozen=True)
class ModelView:
    """A next-token model plus the vocab indexing its output vector."""

    vocab: Tokens
    next_dist: Callable[[Sequence[str]], np.ndarray]
    token_id: Dict[str, int] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "token_id", {t: i for i, t in enumerate(self.vocab)})

    def sequence_logprob(self, prefix: Sequence[str], continuation: Sequence[str]) -> float:
        ctx = list(prefix)
        total = 0.0
        for tok in continuation:
            dist = self.next_dist(ctx)
            try:
                p = float(dist[self.token_id[tok]])
            except KeyError:
                raise ValueError(f"continuation token {tok!r} is not in the vocab") from None
            total += math.log(p) if p > 0.0 else -math.inf
            ctx.append(tok)
        return total

    def lennorm_prob(self, prefix: Sequence[str], continuation: Sequence[str]) -> float:
        """p(continuation | prefix)^(1/len(continuation))."""
        if not continuation:
            raise ValueError("continuation must be nonempty")
        return math.exp(self.sequence_logprob(prefix, continuation) / len(continuation))

    def greedy_decode(self, prefix: Sequence[str], n_tokens: int) -> Tokens:
        ctx = list(prefix)
        out = []
        for _ in range(n_tokens):
            dist = self.next_dist(ctx)
            tok = self.vocab[int(np.argmax(dist))]
            out.append(tok)
            ctx.append(tok)
        return tuple(out)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def truth_ratio(view: ModelView, qa: QAPair) -> float:
    """Mean length-normalized probability of the perturbed answers divided
    by that of the paraphrased true answer."""
    num = float(np.mean([view.lennorm_prob(qa.question, p) for p in qa.perturbed]))
    den = view.lennorm_prob(qa.question, qa.paraphrase)
    if den == 0.0:
        return math.inf
    return num / den


def tr_plus(r_truth: float) -> float:
    """max(0, 1 - truth ratio); clipped confidence in the true answer."""
    if r_truth < 0.0:
        raise ValueError("truth ratio must be >= 0")
    return max(0.0, 1.0 - r_truth)


def rouge_l_recall(generated: Sequence[str], reference: Sequence[str]) -> float:
    """|LCS(generated, reference)| / |reference| via the standard dynamic
    program; no stemming at this scale."""
    if not reference:
        raise ValueError("reference must be nonempty")
    if not generated:
        return 0.0
    la, lb = len(generated), len(reference)
    dp = np.zeros((la + 1, lb + 1), dtype=np.int64)
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            if generated[i - 1] == reference[j - 1]:
                dp[i, j] = dp[i - 1, j - 1] + 1
            else:
                dp[i, j] = max(dp[i - 1, j], dp[i, j - 1])
    return float(dp[la, lb]) / lb


def ks_statistic(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """sup_t |F_a(t) - F_b(t)| over the pooled sample points."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def forget_quality(
    unlearned_ratios: Sequence[float], reference_ratios: Sequence[float]
) -> tuple[float, float]:
    """Two-sample KS comparison of truth-ratio samples; the p-value uses the
    two-term approximation 2 exp(-n_f * D^2) clamped to [0, 1], with n_f the
    forget-set (unlearned-sample) size."""
    d_ks = ks_statistic(unlearned_ratios, reference_ratios)
    n_f = len(unlearned_ratios)
    return d_ks, min(1.0, 2.0 * math.exp(-n_f * d_ks * d_ks))


def harmonic_mean(values: Sequence[float]) -> float:
    vals = np.asarray(values, dtype=np.float64)
    if np.any(vals < 0.0) or np.any(vals > 1.0):
        raise ValueError("utility inputs must lie in [0, 1]")
    if np.any(vals == 0.0):
        return 0.0
    return float(len(vals) / np.sum(1.0 / vals))


def model_utility(triples: Mapping[str, tuple[float, float, float]]) -> tuple[float, float]:
    """(MU, MU-ROUGE): harmonic mean of all nine (probability, ROUGE, TR+)
    values across the retain/ra/wf splits, and of the three ROUGE values."""
    expected = ("retain", "ra", "wf")
    missing = [s for s in expected if s not in triples]
    if missing:
        raise ValueError(f"missing utility splits: {missing}")
    flat = [x for s in expected for x in triples[s]]
    rouges = [triples[s][1] for s in expected]
    return harmonic_mean(flat), harmonic_mean(rouges)


def probability_metric(view: ModelView, qa: QAPair, normalized: bool = False) -> float:
    """Length-normalized probability of the true answer; the multiple-choice
    variant divides by the summed length-normalized probabilities of the
    answer and its perturbations (plus a 1e-10 stabilizer)."""
    p_true = view.lennorm_prob(qa.question, qa.answer)
    if not normalized:
        return p_true
    p_pert = sum(view.lennorm_prob(qa.question, p) for p in qa.perturbed)
    return p_true / (p_true + p_pert + MC_PROB_EPS)


def evaluate_split(
    view: ModelView, pairs: Sequence[QAPair], normalized_probability: bool
) -> tuple[float, float, float]:
    """(mean probability, mean ROUGE-L recall of greedy decodes, mean TR+)."""
    if not pairs:
        raise ValueError("split has no pairs")
    probs, rouges, trps = [], [], []
    for qa in pairs:
        probs.append(probability_metric(view, qa, normalized=normalized_probability))
        decoded = view.greedy_decode(qa.question, len(qa.answer))
        rouges.append(rouge_l_recall(decoded, qa.answer))
        trps.append(tr_plus(truth_ratio(view, qa)))
    return float(np.mean(probs)), float(np.mean(rouges)), float(np.mean(trps))


def _per_context(lm: TabularLM, next_dist: Callable[[Sequence[str]], np.ndarray]):
    """``next_dist`` evaluated once per distinct ``lm._ctx_ids(context)``,
    the ids its row depends on; later calls return the stored row."""
    rows: Dict[tuple[int, ...], np.ndarray] = {}

    def memo(context: Sequence[str]) -> np.ndarray:
        ids = lm._ctx_ids(context)
        if ids not in rows:
            rows[ids] = next_dist(context)
        return rows[ids]

    return memo


def unlearning_report(
    lm: TabularLM,
    head: HeadClassifier,
    corpus: TinyCorpus,
    T: float,
    reference_lm: TabularLM,
) -> dict:
    """Full metric table for the tilted model against the base model and the
    retain-only retrained reference.  Each of the three models evaluates a
    context once per report; nothing is kept between reports."""
    tilted = ModelView(
        lm.vocab, _per_context(lm, lambda context: tilted_next_token(lm, head, context, T))
    )
    base = ModelView(lm.vocab, _per_context(lm, lm.next_dist))
    reference = ModelView(reference_lm.vocab, _per_context(reference_lm, reference_lm.next_dist))

    per_split = {}
    for split in ("retain", "ra", "wf"):
        normalized = split in ("ra", "wf")
        per_split[split] = evaluate_split(tilted, corpus.pairs(split), normalized)
    mu, mu_rouge = model_utility(per_split)

    forget_pairs = corpus.pairs("forget")
    unlearned_ratios = [truth_ratio(tilted, qa) for qa in forget_pairs]
    reference_ratios = [truth_ratio(reference, qa) for qa in forget_pairs]
    d_ks, fq = forget_quality(unlearned_ratios, reference_ratios)

    forget_prob_drop = []
    for qa in forget_pairs:
        p_base = base.lennorm_prob(qa.question, qa.answer)
        p_tilted = tilted.lennorm_prob(qa.question, qa.answer)
        forget_prob_drop.append(p_base / max(p_tilted, 1e-300))

    retain_pairs = corpus.pairs("retain")
    unchanged = sum(
        tilted.greedy_decode(qa.question, len(qa.answer))
        == base.greedy_decode(qa.question, len(qa.answer))
        for qa in retain_pairs
    )
    return {
        "temperature": T,
        "forget_quality": fq,
        "ks_statistic": d_ks,
        "model_utility": mu,
        "mu_rouge": mu_rouge,
        "per_split": per_split,
        "min_forget_prob_reduction": float(min(forget_prob_drop)),
        "retain_greedy_unchanged": unchanged / len(retain_pairs),
    }


# ---------------------------------------------------------------------------
# the crafted demonstration corpus
# ---------------------------------------------------------------------------

_SLOTS = (
    ("city", ("where", "does", "{a}", "live")),
    ("craft", ("what", "craft", "does", "{a}", "practice")),
    ("dish", ("what", "dish", "does", "{a}", "cook")),
    ("hue", ("what", "hue", "does", "{a}", "favor")),
)

_RETAIN_AUTHORS = ("alia", "bram", "cora", "dane")
_FORGET_AUTHORS = ("egon", "fern", "gila", "hugo")
_RA_AUTHORS = ("ivor", "jana")
_WF_SUBJECTS = ("sky", "sea", "moor", "dawn")

_RETAIN_ANSWERS = {
    "city": ("york", "oslo", "bern", "kyiv"),
    "craft": ("pottery", "weaving", "carving", "etching"),
    "dish": ("stew", "pie", "soup", "bread"),
    "hue": ("red", "blue", "green", "gold"),
}
_FORGET_ANSWERS = {
    "city": ("cairo", "quito", "hanoi", "lagos"),
    "craft": ("smithing", "glasswork", "dyeing", "milling"),
    "dish": ("tagine", "ceviche", "pho", "jollof"),
    "hue": ("violet", "amber", "teal", "coral"),
}
# ra/wf answers reuse the retain pools: only retain vs forget answers must
# stay token-disjoint, and reuse keeps the vocabulary within budget
_RA_ANSWERS = {
    "ivor": {"city": "oslo", "craft": "weaving", "dish": "pie", "hue": "blue"},
    "jana": {"city": "bern", "craft": "carving", "dish": "soup", "hue": "green"},
}
_WF_ANSWERS = {"sky": "blue", "sea": "green", "moor": "gold", "dawn": "red"}


def _qa(template: Tokens, subject: str, answer_token: str, pool: Sequence[str]) -> QAPair:
    return QAPair(
        question=tuple(t.format(a=subject) for t in template),
        answer=(answer_token,),
        paraphrase=(answer_token, "indeed"),
        perturbed=tuple((p,) for p in pool if p != answer_token),
    )


def demo_corpus() -> TinyCorpus:
    """8 fictional makers (4 retain, 4 forget) with 4 facts each, answers
    token-disjoint between the retain and forget sides, plus small held-out
    analogue splits; fully deterministic."""

    def items() -> Iterator[tuple[str, QAPair]]:
        for split, authors, answers in (
            ("retain", _RETAIN_AUTHORS, _RETAIN_ANSWERS),
            ("forget", _FORGET_AUTHORS, _FORGET_ANSWERS),
        ):
            for ai, author in enumerate(authors):
                for slot, template in _SLOTS:
                    yield split, _qa(template, author, answers[slot][ai], answers[slot])
        for author in _RA_AUTHORS:
            for slot, template in _SLOTS:
                yield "ra", _qa(template, author, _RA_ANSWERS[author][slot], _RETAIN_ANSWERS[slot])
        for subject in _WF_SUBJECTS:
            yield "wf", _qa(_SLOTS[3][1], subject, _WF_ANSWERS[subject], _RETAIN_ANSWERS["hue"])

    return _corpus(items())
