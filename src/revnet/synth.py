"""Seeded synthetic peer-review corpora with planted feature-outcome links.

Each paper gets a latent quality score

    q = sum_f effect[f] * signal_f + noise

over a small set of named signals (network position of the assigned
reviewer(s), report sentiment, team size, author reputation, report
length).  Citations are a monotone function of q, so any planted
signal is recoverable by the downstream pipeline exactly to the extent the
corresponding feature can be reconstructed from the event log.

Reviewer centrality is planted honestly: editors have fixed reviewer pools,
and hub reviewers simply sit in many pools, so the one-mode projection gives
them high degree/centrality without ever touching the graph directly.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import accumulate

from .corpus import (Assignment, CitationRecord, Decision, Report, ReviewEvent,
                     Submission)
from .text_metrics import CATEGORIES, Lexicon, load_lexicon

DEFAULT_EFFECTS = {
    "network": 1.0,
    "sentiment": 0.3,
    "team_size": 0.2,
    "author_reputation": 0.3,
    "report_length": 0.0,
}

# Bound on each effect weight and on noise_sd.  A planted signal is at most
# about sqrt(papers) in size and a Gaussian draw at most about 8.6, so the
# latent qualities stay far below 1e154, past which _standardize's squares
# overflow.
MAX_WEIGHT = 1e100

# neutral report vocabulary; anything appearing in a lexicon is dropped at
# generation time so planted hit rates stay exact
_FILLER = (
    "the paper presents a model of gauge symmetry in section two where "
    "equations are derived for the scattering amplitude the computation "
    "uses standard techniques from field theory the manuscript discusses "
    "boundary conditions on the lattice the derivation follows from the "
    "action principle the numerical part evaluates integrals over moduli "
    "space the text describes renormalization flow near the fixed point "
    "several figures present spectra for varying coupling the appendix "
    "lists conventions used throughout the main body"
).split()


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    start_year: int = 2007
    n_years: int = 5
    papers_per_year: int = 200
    n_editors: int = 12
    n_reviewers: int = 80
    n_authors: int = 300
    multi_reviewer_fraction: float = 0.10
    accept_rate: float = 0.74
    withdraw_rate: float = 0.01
    noise_sd: float = 0.3
    effects: dict = field(default_factory=lambda: dict(DEFAULT_EFFECTS))
    submission_grid_days: int = 14  # distinct submission dates per year
    citation_base: float = 2.3
    citation_spread: float = 1.1
    rejected_citation_base: float = 1.2
    # P(second round), P(third round) per outcome; accepted papers typically
    # go through more revision rounds than rejected ones
    round_probs_accepted: tuple = (0.58, 0.18)
    round_probs_rejected: tuple = (0.30, 0.05)

    def __post_init__(self):
        # annotations are strings here (``from __future__ import annotations``)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_finite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("round_probs_accepted", "round_probs_rejected"):
            probs = getattr(self, name)
            if not (isinstance(probs, (list, tuple)) and len(probs) == 2
                    and all(_is_finite(p) and 0.0 <= p <= 1.0 for p in probs)):
                raise ValueError(f"{name} must be two probabilities, got {probs!r}")
            object.__setattr__(self, name, tuple(probs))
        if self.papers_per_year < 1 or self.n_years < 1:
            raise ValueError("need at least one paper and one year")
        if self.n_reviewers < 2 or self.n_editors < 1 or self.n_authors < 1:
            raise ValueError("infeasible population sizes")
        if self.submission_grid_days < 1:
            raise ValueError(f"submission_grid_days must be at least 1, "
                             f"got {self.submission_grid_days}")
        # decisions may fall in the year after the last submission year
        if self.start_year < dt.MINYEAR or self.start_year + self.n_years > dt.MAXYEAR:
            raise ValueError(f"start_year {self.start_year} to start_year + n_years "
                             f"{self.start_year + self.n_years} must lie within "
                             f"{dt.MINYEAR}-{dt.MAXYEAR}")
        for name, frac in (("multi_reviewer_fraction", self.multi_reviewer_fraction),
                           ("accept_rate", self.accept_rate),
                           ("withdraw_rate", self.withdraw_rate)):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not isinstance(self.effects, dict):
            raise ValueError(f"effects must map effect names to weights, "
                             f"got {self.effects!r}")
        unknown = set(self.effects) - set(DEFAULT_EFFECTS)
        if unknown:
            raise ValueError(f"unknown effect names: {sorted(unknown)}")
        bad = {name: w for name, w in self.effects.items()
               if not (_is_finite(w) and abs(w) <= MAX_WEIGHT)}
        if bad:
            raise ValueError(f"effects must be finite numbers of magnitude at most "
                             f"{MAX_WEIGHT:g}, got {bad}")
        if not 0.0 <= self.noise_sd <= MAX_WEIGHT:
            raise ValueError(f"noise_sd must lie in [0, {MAX_WEIGHT:g}], "
                             f"got {self.noise_sd!r}")

    @classmethod
    def from_file(cls, path) -> "SynthConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a generator config is a JSON object, "
                             f"not {type(raw).__name__}")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown generator config keys {unknown}")
        return cls(**raw)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class PaperTruth:
    paper_id: str
    quality: float
    signals: dict
    accepted: bool
    outcome: str
    citations: int | None
    reviewer_ids: tuple[str, ...]
    reviewer_hub_scores: tuple[int, ...]


@dataclass(frozen=True)
class GroundTruth:
    papers: dict  # paper_id -> PaperTruth
    hub_scores: dict  # reviewer_id -> pool membership count


def _standardize(values: list[float]) -> list[float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    sd = math.sqrt(var) if var > 1e-18 else 1.0
    return [(v - mean) / sd for v in values]


def _word_pools(lexicon: Lexicon):
    pools = {
        "positive": sorted(lexicon.positive),
        "negative": sorted(lexicon.negative),
    }
    for cat in CATEGORIES:
        pools[cat] = sorted(lexicon.categories[cat])
    reserved = set()
    for words in pools.values():
        reserved.update(words)
    pools["filler"] = [w for w in _FILLER if w not in reserved]
    empty = [name for name, words in pools.items() if not words]
    if empty:
        raise ValueError(f"empty report word pool(s) {empty}: each lexicon "
                         f"list needs a word, and the filler a word outside "
                         f"the lexicon")
    return pools


def _report_text(rng: random.Random, pools, s_snt: float, length: int) -> str:
    """``length`` words; each takes one ``rng.random()`` for its pool, then
    ``rng.choice(pool)``'s draw.  The order of these draws fixes the log bytes."""
    lean = math.tanh(s_snt)
    probs = [
        ("positive", 0.035 * (1.0 + 0.7 * lean)),
        ("negative", 0.035 * (1.0 - 0.7 * lean)),
        ("future_tense", 0.012 * (1.0 + 0.5 * lean)),
        ("insight", 0.030 * (1.0 + 0.4 * lean)),
        ("causation", 0.022 * (1.0 + 0.4 * lean)),
        ("inclusive", 0.032 * (1.0 + 0.4 * lean)),
        ("positive_emotion", 0.015 * (1.0 + 0.5 * lean)),
        ("negation", 0.010 * (1.0 - 0.5 * lean)),
        ("exclusive", 0.013 * (1.0 - 0.5 * lean)),
    ]
    # the word's pool is the first whose running sum exceeds u; index 9, past
    # the last sum, is filler
    bounds = list(accumulate(p for _, p in probs))
    ordered = [pools[name] for name, _ in probs] + [pools["filler"]]
    draws = [(pool, len(pool), len(pool).bit_length()) for pool in ordered]
    uniform, getrandbits = rng.random, rng.getrandbits
    words = []
    append = words.append
    for _ in range(length):
        pool, n, k = draws[bisect_right(bounds, uniform())]
        # rng.choice(pool) as CPython draws it: _randbelow_with_getrandbits(n)
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(pool[r])
    return " ".join(words)


def _generate_full(config: SynthConfig) -> tuple[list[ReviewEvent], GroundTruth]:
    rng = random.Random(config.seed)
    lexicon = load_lexicon()
    pools = _word_pools(lexicon)

    editors = [f"ed{i:03d}" for i in range(config.n_editors)]
    reviewers = [f"rev{i:03d}" for i in range(config.n_reviewers)]
    authors = [f"au{i:04d}" for i in range(config.n_authors)]

    # hub structure: high-propensity reviewers belong to many editor pools
    propensity = {r: rng.random() ** 2 for r in reviewers}
    editor_pool = {}
    for e in editors:
        pool = [r for r in reviewers if rng.random() < 0.03 + 0.42 * propensity[r]]
        while len(pool) < 3:
            cand = rng.choice(reviewers)
            if cand not in pool:
                pool.append(cand)
        editor_pool[e] = pool
    hub = {r: sum(1 for e in editors if r in editor_pool[e]) for r in reviewers}

    reputation = {a: rng.gauss(0.0, 1.0) for a in authors}

    team_sizes = list(range(1, 13))
    team_weights = [15, 25, 20, 12, 8, 6, 4, 3, 3, 2, 1, 1]
    grid = list(range(0, 330, config.submission_grid_days))
    end_year = config.start_year + config.n_years - 1

    papers = []
    serial = 0
    for year in range(config.start_year, config.start_year + config.n_years):
        for _ in range(config.papers_per_year):
            pid = f"p{serial:05d}"
            serial += 1
            sub_date = dt.date(year, 1, 1) + dt.timedelta(days=rng.choice(grid))
            ts = rng.choices(team_sizes, weights=team_weights, k=1)[0]
            team = [rng.choice(authors)]
            while len(team) < ts:
                cand = rng.choice(authors)
                if cand not in team:
                    team.append(cand)
            editor = rng.choice(editors)
            k_rev = 2 if rng.random() < config.multi_reviewer_fraction else 1
            pool = editor_pool[editor]
            k_rev = min(k_rev, len(pool))
            revs = rng.sample(pool, k_rev)

            s_snt = rng.gauss(0.0, 1.0)
            s_rl = rng.gauss(0.0, 1.0)
            noise = rng.gauss(0.0, config.noise_sd)
            u_accept = rng.random()
            u_withdraw = rng.random()
            u_rounds = (rng.random(), rng.random())

            papers.append({
                "pid": pid, "sub_date": sub_date, "team": team, "editor": editor,
                "revs": revs, "s_snt": s_snt, "s_rl": s_rl, "noise": noise,
                "u_accept": u_accept, "u_withdraw": u_withdraw,
                "u_rounds": u_rounds,
            })

    # standardized planted signals
    net = _standardize([sum(hub[r] for r in p["revs"]) / len(p["revs"])
                        for p in papers])
    team_sig = _standardize([-(((len(p["team"]) - 9) / 6.0) ** 2) for p in papers])
    rep = _standardize([sum(reputation[a] for a in p["team"]) / len(p["team"])
                        for p in papers])
    rl_sig = [p["s_rl"] for p in papers]
    snt_sig = [p["s_snt"] for p in papers]

    qualities = []
    for i, p in enumerate(papers):
        signals = {
            "network": net[i],
            "sentiment": snt_sig[i],
            "team_size": team_sig[i],
            "author_reputation": rep[i],
            "report_length": rl_sig[i],
        }
        q = sum(config.effects.get(name, 0.0) * value
                for name, value in signals.items()) + p["noise"]
        p["signals"] = signals
        p["quality"] = q
        qualities.append(q)
    q_std = _standardize(qualities)

    for i, p in enumerate(papers):
        if p["u_withdraw"] < config.withdraw_rate:
            p["outcome"] = "withdraw"
            p["citations"] = None
            continue
        p_accept = config.accept_rate + 0.10 * math.tanh(p["quality"]) \
            + 0.08 * math.tanh(p["signals"]["author_reputation"])
        p_accept = min(max(p_accept, 0.02), 0.98)
        accepted = p["u_accept"] < p_accept
        p["outcome"] = "accept" if accepted else "reject"
        base = config.citation_base if accepted else config.rejected_citation_base
        try:
            p["citations"] = int(round(math.exp(base + config.citation_spread * q_std[i])))
        except OverflowError:
            raise ValueError(f"citation_base, rejected_citation_base and citation_spread "
                             f"give {p['pid']} more citations than a float holds") from None

    # round counts depend on the outcome; the remaining draws (lags, delays,
    # report texts) happen here in generation order so the stream stays
    # deterministic
    for p in papers:
        probs = config.round_probs_accepted if p["outcome"] == "accept" \
            else config.round_probs_rejected
        rounds = 1 + (p["u_rounds"][0] < probs[0]) + (p["u_rounds"][1] < probs[1])
        p["rounds"] = rounds
        p["round_lags"] = [rng.randrange(3, 11) for _ in range(rounds)]
        p["delays"] = [[int(min(max(rng.gauss(55.0, 25.0), 5.0), 120.0))
                        for _ in p["revs"]] for _ in range(rounds)]
        p["decision_lag"] = rng.randrange(3, 8)
        length = max(30, int(280 + 100 * p["s_rl"]))
        p["texts"] = [[_report_text(rng, pools, p["s_snt"], length)
                       for _ in p["revs"]] for _ in range(rounds)]

    # emit events, papers ordered by submission date then id
    events: list[ReviewEvent] = []
    truth: dict[str, PaperTruth] = {}
    for p in sorted(papers, key=lambda p: (p["sub_date"], p["pid"])):
        pid = p["pid"]
        events.append(Submission(pid, p["sub_date"], tuple(p["team"]),
                                 f"Synthetic study {pid}"))
        cursor = p["sub_date"]
        for ri in range(p["rounds"]):
            assign_date = cursor + dt.timedelta(days=p["round_lags"][ri])
            last_report = assign_date
            for k, rid in enumerate(p["revs"]):
                events.append(Assignment(pid, assign_date, p["editor"], rid, ri + 1))
            for k, rid in enumerate(p["revs"]):
                report_date = assign_date + dt.timedelta(days=p["delays"][ri][k])
                last_report = max(last_report, report_date)
                if ri + 1 < p["rounds"] or p["outcome"] == "withdraw":
                    recommendation = "revise"
                else:
                    recommendation = "accept" if p["outcome"] == "accept" else "reject"
                events.append(Report(pid, report_date, rid, ri + 1,
                                     p["texts"][ri][k], recommendation))
            cursor = last_report
        decision_date = cursor + dt.timedelta(days=p["decision_lag"])
        events.append(Decision(pid, decision_date, p["outcome"], p["rounds"]))
        if p["citations"] is not None:
            cite_date = max(decision_date, dt.date(end_year, 12, 31))
            events.append(CitationRecord(pid, cite_date, p["citations"], end_year))
        truth[pid] = PaperTruth(
            paper_id=pid,
            quality=p["quality"],
            signals=p["signals"],
            accepted=p["outcome"] == "accept",
            outcome=p["outcome"],
            citations=p["citations"],
            reviewer_ids=tuple(p["revs"]),
            reviewer_hub_scores=tuple(hub[r] for r in p["revs"]),
        )
    return events, GroundTruth(truth, hub)


def generate(config: SynthConfig) -> list[ReviewEvent]:
    """Deterministic per seed: same config -> identical event list."""
    events, _ = _generate_full(config)
    return events


def ground_truth(config: SynthConfig, events: list[ReviewEvent]) -> GroundTruth:
    """Oracle for a log produced by :func:`generate` with the same config.

    The corpus is regenerated from the config and compared with the supplied
    log; any mismatch raises, which catches config/log mixups.
    """
    expected, truth = _generate_full(config)
    if len(expected) != len(events) or expected != list(events):
        raise ValueError("event log does not match this config/seed")
    return truth
