"""Inputs of the four benchmark workloads.

Every input is a function of the seed: the seed picks spec targets, spec
order and the serve-mix request sequence, never a model's size.  The
program under test only ever receives the SMV text built here (plus, for
serve-mix, the small models committed under examples/models).  Why each
workload exists, and what each layer metric should move on it, is in
perfbench/WORKLOADS.md.

The generators mirror bench/workloads.ml (arbiter_smv, philosophers_smv,
counter_smv), so the models are the ones the E18 experiment measures.
"""

import collections
import os
import random


def counter_smv(bits):
    out = ["MODULE main\nVAR\n"]
    out += [f"  b{i} : boolean;\n" for i in range(bits)]
    out.append("ASSIGN\n")
    out += [f"  init(b{i}) := FALSE;\n" for i in range(bits)]
    out.append("  next(b0) := !b0;\n")
    for i in range(1, bits):
        lower = " & ".join(f"b{j}" for j in range(i))
        out.append(f"  next(b{i}) := !(b{i} <-> ({lower}));\n")
    return "".join(out)


def arbiter_smv(n):
    """Round-robin token arbiter in its adversarial declared order: all
    requests, then all acknowledges, then the token."""
    out = ["MODULE main\nVAR\n"]
    out += [f"  req{i} : boolean;\n" for i in range(n)]
    out += [f"  ack{i} : boolean;\n" for i in range(n)]
    out.append("  token : {%s};\n" % ", ".join(f"t{i}" for i in range(n)))
    out.append("ASSIGN\n")
    out += [f"  init(req{i}) := FALSE;\n" for i in range(n)]
    out += [f"  init(ack{i}) := FALSE;\n" for i in range(n)]
    out.append("  init(token) := t0;\n  next(token) := case\n")
    out += [f"      token = t{i} : t{i + 1};\n" for i in range(n - 1)]
    out.append("      TRUE : t0;\n    esac;\n")
    out += [f"  next(ack{i}) := req{i} & token = t{i};\n" for i in range(n)]
    out += [
        f"  next(req{i}) := case ack{i} : {{TRUE, FALSE}}; req{i} : TRUE; "
        f"TRUE : {{TRUE, FALSE}}; esac;\n"
        for i in range(n)
    ]
    return "".join(out)


def philosophers_smv(n):
    """n dining philosophers, one FAIRNESS constraint per philosopher."""
    out = [
        "MODULE phil(go, left_free, right_free)\n",
        "VAR\n  st : {think, hungry, left, eat};\n",
        "ASSIGN\n  init(st) := think;\n",
        "  next(st) := case\n",
        "      go & st = think : {think, hungry};\n",
        "      go & st = hungry & left_free : left;\n",
        "      go & st = left & right_free : eat;\n",
        "      go & st = eat : think;\n",
        "      TRUE : st;\n    esac;\n",
        "DEFINE\n",
        "  holds_left := st = left | st = eat;\n",
        "  eating := st = eat;\n\n",
        "MODULE main\nVAR\n",
        f"  sched : 0..{n - 1};\n",
    ]
    out += [
        f"  p{i} : phil(sched = {i}, fork{i}_free, fork{(i + 1) % n}_free);\n"
        for i in range(n)
    ]
    out.append("DEFINE\n")
    out += [
        f"  fork{i}_free := !p{i}.holds_left & !p{(i - 1) % n}.eating;\n"
        for i in range(n)
    ]
    out.append(
        "ASSIGN\n  next(sched) := {%s};\n" % ", ".join(str(i) for i in range(n))
    )
    out += [f"FAIRNESS sched = {i}\n" for i in range(n)]
    return "".join(out)


def with_specs(source, specs):
    return source + "".join(f"SPEC {s}\n" for s in specs)


def counter_value(bits, v):
    return " & ".join(f"b{i}" if (v >> i) & 1 else f"!b{i}" for i in range(bits))


# ---------------------------------------------------------------------------
# One-shot workloads: smv_check receives with_specs(model, specs).  Each
# workload also states the verdicts its construction fixes (the oracle
# must agree, or set-up fails) and, where the construction fixes them,
# the lengths of the certified traces in output order (None otherwise).

OneShot = collections.namedtuple("OneShot", "model specs verdicts lengths")


# The EF targets of witness-deep, in the counter's top eighth.  They are
# fixed: the witness cost depends on the target's bit pattern as well as
# on its depth (v = 1023 ran 16% cheaper than v = 1022 and v = 1016 15%
# dearer), so a seeded target would move check_s from seed to seed.
WITNESS_TARGETS = (959, 1021)


def witness_deep(rng):
    """counter-10: EF of each of WITNESS_TARGETS (witnesses about 1000
    states long) and AG (b0 -> EF !b0), in seeded order.  All hold; the
    counter is deterministic, so the witness of EF v runs from 0 to v:
    v + 1 states.  The AG spec is universal and true, so it has no
    trace."""
    bits = 10
    specs = [f"EF ({counter_value(bits, v)})" for v in WITNESS_TARGETS]
    specs.append("AG (b0 -> EF !b0)")
    rng.shuffle(specs)
    lengths = [v + 1 for s in specs for v in WITNESS_TARGETS
               if s == f"EF ({counter_value(bits, v)})"]
    return OneShot(counter_smv(bits), specs, "TTT", lengths)


def verdict_wide(rng):
    """arbiter-8: a (mutual-exclusion, response) pair for every user, all
    true: the token grants one acknowledge at a time, and it visits every
    user while a request stays raised until acknowledged.  The seed picks
    the order of the users and each one's mutual-exclusion partner; every
    user's response fixpoint runs in every seed, so the work stays the
    same."""
    n = 8
    specs = []
    for k in rng.sample(range(n), n):
        j = rng.choice([x for x in range(n) if x != k])
        specs.append(f"AG !(ack{k} & ack{j})")
        specs.append(f"AG (req{k} -> AF ack{k})")
    return OneShot(arbiter_smv(n), specs, "TT" * n, None)


def fair_lasso(rng):
    """philosophers-6: per philosopher, in seeded order, one true safety
    spec and two false liveness specs with fair-lasso counterexamples
    (starvation: fair scheduling does not stop the neighbours from taking
    the forks first): TFF six times."""
    n = 6
    specs = []
    for i in rng.sample(range(n), n):
        j = (i + rng.choice([1, -1])) % n
        specs += [
            f"AG !(p{i}.eating & p{j}.eating)",
            f"AG (p{i}.st = hungry -> AF p{i}.eating)",
            f"AG (p{i}.st = left -> AF p{i}.eating)",
        ]
    return OneShot(philosophers_smv(n), specs, "TFF" * n, None)


ONE_SHOT = {
    "witness-deep": witness_deep,
    "verdict-wide": verdict_wide,
    "fair-lasso": fair_lasso,
}


# ---------------------------------------------------------------------------
# serve-mix

# (name, committed file or generated source, base SPECs for generated
#  models, atoms for seeded extra formulas, expected verdicts of the base
#  SPECs, expected verdicts of the candidate formulas in candidate order).
# The expected verdicts are fixed because the candidates are: they were
# decided once by the explicit-state checker (Robust.Fallback, fair
# semantics) on every model, arbiter-6 and philosophers-5 included, and
# set-up fails if the symbolic oracle ever disagrees with them.
COMMITTED = "examples/models"
SERVE_MODELS = [
    ("mutex", "mutex.smv", None,
     ["p = idle", "p = try", "p = crit", "q = try", "q = crit", "turn"],
     "TFT", "TFTTTTFFFFFTFTFFTFTFFFTFFTTTFTTF"),
    ("philosophers", "philosophers.smv", None,
     ["p0.eating", "p1.eating", "p2.eating", "p0.st = hungry", "p1.st = left",
      "p2.st = think"],
     "TTTTF", "FTFFFFFTFFFFFFFFFTFFFTFTFFFFFFFF"),
    ("cache", "cache.smv", None,
     ["c0 = owned", "c1 = owned", "c0 = shared", "c1 = shared", "c0 = invalid",
      "op = wr0", "op = rd1"],
     "TTTTTF", "FTTTTFTFFFFFFFFFFTTFFFTFFFFFTFTF"),
    ("ring", "ring.smv", None,
     ["g1.out", "g2.out", "g3.out", "!g1.out", "!g3.out"],
     "TTTF", "FTTTTTTTTTTTTTTTFFFFTFTFFFFFFFFF"),
    ("arbiter-6", None,
     ["AG !(ack0 & ack1)", "AG (req2 -> AF ack2)", "EF (req3 & ack3)"],
     [f"req{i}" for i in range(6)] + [f"ack{i}" for i in range(6)],
     "TTT", "TTTFTTTFFFFFFFFFFFFFFFFTFFTTTFTT"),
    ("philosophers-5", None,
     ["AG !(p0.eating & p1.eating)", "AG (p2.st = hungry -> AF p2.eating)",
      "EF p4.eating"],
     [f"p{i}.eating" for i in range(5)] + [f"p{i}.st = hungry" for i in range(5)],
     "TFT", "TTTTTTTTFFFFFFFFTFFFFTFFFFFFFFFF"),
    ("counter-8", None,
     ["EF (b7 & b6 & b0)", "AG (b0 -> EF !b0)", "AG EF !b7"],
     [f"b{i}" for i in range(8)] + ["!b0", "!b7"],
     "TTT", "TTTTTTTTTTTTTTTTFFFFFFFFFFFFFFFF"),
]

GENERATED = {
    "arbiter-6": lambda: arbiter_smv(6),
    "philosophers-5": lambda: philosophers_smv(5),
    "counter-8": lambda: counter_smv(8),
}

TEMPLATES = [
    "EF ({a} & {b})",
    "AG ({a} -> AF {b})",
    "AG !({a} & {b})",
    "AG ({a} -> EX {b})",
]

# The candidate extra formulas are fixed, the same for every seed, with
# the same number per template: their costs differ (AG (a -> AF b) under
# fairness needs a lasso), and a seeded candidate set would move the
# newspec and cold medians from seed to seed.  The seed picks among them.
FORMULAS_PER_TEMPLATE = 8
CANDIDATE_SEED = "serve-mix candidates"
WARM, NEWSPEC, COLD = "warm", "newspec", "cold"

ServeModel = collections.namedtuple(
    "ServeModel", "name source formulas verdicts formula_verdicts")


def serve_models(root):
    """The working set, one ServeModel per model."""
    rng = random.Random(CANDIDATE_SEED)
    models = []
    for name, path, specs, atoms, verdicts, formula_verdicts in SERVE_MODELS:
        if path is not None:
            with open(os.path.join(root, COMMITTED, path)) as f:
                source = f.read()
        else:
            source = with_specs(GENERATED[name](), specs)
        pairs = [(a, b) for a in atoms for b in atoms if a != b]
        formulas = [t.format(a=a, b=b) for t in TEMPLATES
                    for a, b in rng.sample(pairs, FORMULAS_PER_TEMPLATE)]
        models.append(ServeModel(name, source, formulas, verdicts,
                                 dict(zip(formulas, formula_verdicts))))
    return models


# The request mix per round of len(models) * 20 requests: every model
# gets 13 warm, 4 newspec and 3 cold requests (65%, 20%, 15%).
ROUND = (WARM,) * 13 + (NEWSPEC,) * 4 + (COLD,) * 3


class RequestSequence:
    """The seeded request mix: 65% warm (an exact repeat of an earlier
    non-cold request on the model), 20% newspec (one extra formula on the
    model's unchanged source) and 15% cold (the source with an extra SPEC
    line, made unique by an edit counter, so it always misses the warm
    pool).  Every model gets the same share: no measured traffic says
    which models are popular.  Requests come in rounds that hold every
    (model, class) pair in those shares, in seeded order; the seed also
    picks the formulas and the repeats.  Drawing model and class at random
    instead moved the class medians from seed to seed by up to 19%: the
    models' costs differ up to tenfold, and the median of a class jumps
    between them as the draw favours one model or another."""

    def __init__(self, rng, models):
        self.rng = rng
        self.models = models
        self.earlier = [[[]] for _ in models]
        self.count = 0
        self.round = []

    def priming(self):
        return [(None, i, m.source, [], None) for i, m in enumerate(self.models)]

    def next(self):
        """(class, model index, source, extra specs, added formula): the
        added formula's verdict follows the model's own SPEC verdicts,
        whether it travels in "specs" or in the source."""
        rng = self.rng
        self.count += 1
        if not self.round:
            self.round = [(cls, i) for i in range(len(self.models)) for cls in ROUND]
            rng.shuffle(self.round)
        cls, i = self.round.pop()
        source, formulas = self.models[i].source, self.models[i].formulas
        if cls == WARM:
            specs = rng.choice(self.earlier[i])
            return (WARM, i, source, specs, specs[0] if specs else None)
        f = rng.choice(formulas)
        if cls == NEWSPEC:
            self.earlier[i].append([f])
            return (NEWSPEC, i, source, [f], f)
        return (COLD, i, f"{source}-- edit {self.count}\nSPEC {f}\n", [], f)
