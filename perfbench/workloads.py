"""Seeded job generation for the three perfbench workloads.

Everything the engine sees is produced here from the workload seed: the
generated lexer programs, the initial inputs, the serve-mix job order and
its arrival times. The same seed gives the same job list byte for byte.
Each generator also returns what its output checks need to know (the
planted error productions and their keyword spellings, the known bug
messages), which is why the checks never consult the engine's own code.
"""

import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
PROGRAMS = os.path.join(REPO, "examples", "programs")

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# (keyword count, chunk count) grid of lexer-ho. Every seed's job list
# covers the whole grid once, so program size varies inside a run and the
# size mix is the same from seed to seed; the seed picks spellings and
# productions. Three-chunk lexers stop at ten keywords: beyond that a
# 64-test budget does not reliably reach the t0-t2 production.
LEXER_GRID = [(k, 2) for k in range(6, 13)] + [(k, 3) for k in range(6, 11)]
LEXER_BUDGET = 64
# Each grid cell runs at two budgets, so the 24 jobs have (nearly) 24
# distinct sizes and the percentiles move smoothly with speed rather than
# jumping between a few job sizes. Below 64 tests the t0-t2 productions of
# the larger three-chunk lexers are missed.
LEXER_BUDGETS = (LEXER_BUDGET, LEXER_BUDGET + 8)

CSV_BUDGET = 128
# csv-dart-j2 runs four csv_scanner jobs at CSV_DART_BUDGET for every
# checksum job (which ends its search near CSV_BUDGET tests). At that budget
# a csv_scanner job takes about half as long as a checksum job, so the two
# sizes do not overlap: the p50 falls inside the csv_scanner jobs and the
# p90 near the middle of the checksum jobs, away from the noisy tail of
# either. With an even mix the p90 sat in the checksum jobs' tail, which
# host stalls move most.
CSV_DART_ROUNDS = 4
CSV_DART_BUDGET = 96

CSV_BUGS = (
    "junk byte inside a tag field",
    "duplicate record id",
    "accepted more than nine units across records",
)
CHECKSUM_BUGS = (
    "oversized payload accepted",
    "mirrored payload accepted on odd sequence",
    "ack frame with zero sequence verified",
    "reset command verified with stale sequence",
)


def rng_for(workload, seed):
    return random.Random("perfbench:%s:%d" % (workload, seed))


def read_program(name):
    with open(os.path.join(PROGRAMS, name)) as f:
        return f.read()


# ---------------------------------------------------------------------------
# lexer-ho: Section 7 keyword lexers


# Keyword-id pairs of the planted productions, taken in turn. Fixing them
# per job (rather than per seed) keeps each job's search, and so coverage
# and work, identical from seed to seed; the seed picks the spellings.
PRODUCTION_IDS = ((1, 2), (2, 1), (1, 1), (2, 2))


def lexer_program(rng, n_keywords, n_chunks, variant):
    """A keyword-hash lexer in the shape of the paper's Figure 4.

    `classify` recognizes keywords by comparing hash4 images (flex's
    addsym/hashfunct pattern); `lex_main` tokenizes every 4-character chunk
    and feeds the tokens to parser productions. For every chunk after the
    first, one production is planted as an error site; reaching it needs
    two specific keywords, in the first chunk and in that one, i.e.
    inverting hash4 twice. As in the paper's lexer, productions use the
    first keywords of the table (ids 1 and 2), which a budget of about 64
    tests reaches; `variant` selects their id pairs from PRODUCTION_IDS.
    Returns (source, spec) where spec lists the keywords and the planted
    productions as {"message", "chunks", "ids", "words"}.
    """
    keywords = []
    while len(keywords) < n_keywords:
        word = "".join(rng.choice(LETTERS) for _ in range(4))
        if word != "aaaa" and word not in keywords:
            keywords.append(word)

    productions = []
    for second in range(1, n_chunks):
        a, b = PRODUCTION_IDS[(variant + second) % len(PRODUCTION_IDS)]
        words = [keywords[a - 1], keywords[b - 1]]
        productions.append({
            "message": "production t0-t%d: parsed '%s %s'" % (second, *words),
            "chunks": [0, second],
            "ids": [a, b],
            "words": words,
        })

    src = ["extern hash4(int, int, int, int) -> int;", ""]
    src.append("fun classify(c0: int, c1: int, c2: int, c3: int) -> int {")
    src.append("  var sym: int = hash4(c0, c1, c2, c3);")
    for k, word in enumerate(keywords):
        codes = ", ".join(str(ord(c)) for c in word)
        src.append("  if (sym == hash4(%s)) { return %d; } // \"%s\""
                   % (codes, k + 1, word))
    src.append("  return 0; // identifier")
    src.append("}")
    src.append("")
    src.append("fun lex_main(buf: int[%d]) -> int {" % (4 * n_chunks))
    for c in range(n_chunks):
        cells = ", ".join("buf[%d]" % (4 * c + i) for i in range(4))
        src.append("  var t%d: int = classify(%s);" % (c, cells))
    for p in productions:
        (c0, c1), (k0, k1) = p["chunks"], p["ids"]
        src.append("  if (t%d == %d && t%d == %d) {" % (c0, k0, c1, k1))
        src.append("    error(\"%s\");" % p["message"])
        src.append("  }")
    src.append("  var nkw: int = 0;")
    for c in range(n_chunks):
        src.append("  if (t%d > 0) { nkw = nkw + 1; }" % c)
    src.append("  return nkw;")
    src.append("}")
    spec = {"keywords": keywords, "productions": productions}
    return "\n".join(src) + "\n", spec


def lexer_jobs(seed):
    rng = rng_for("lexer-ho", seed)
    grid = [(k, c, b) for k, c in LEXER_GRID for b in LEXER_BUDGETS]
    variants = {cell: i for i, cell in enumerate(grid)}
    rng.shuffle(grid)
    programs, jobs = [], []
    for n_keywords, n_chunks, budget in grid:
        source, spec = lexer_program(
            rng, n_keywords, n_chunks,
            variants[(n_keywords, n_chunks, budget)])
        programs.append(source)
        jobs.append({
            "id": "lexer-k%d-c%d-b%d" % (n_keywords, n_chunks, budget),
            "program": len(programs) - 1,
            "entry": "lex_main",
            "policy": "higher-order",
            "max_tests": budget,
            "jobs": 1,
            "explore_paths": True,
            "input": [ord("a")] * (4 * n_chunks),
            "seed": rng.randrange(1 << 31),
            "expect": {"kind": "lexer", **spec},
        })
    return programs, jobs


# ---------------------------------------------------------------------------
# csv-dart-j2: DART on the CSV scanner, two speculative workers

# Speculative workers per job. With the merge thread that is three busy
# threads, one vCPU short of a 4-vCPU host, so a job keeps its speed while
# something else holds one vCPU. With two vCPUs kept half busy by spinning
# processes, jobs at two workers ran within 3% of their quiet latency; at
# three workers (four busy threads) they ran 1.3-1.5x slower.
CSV_DART_WORKERS = 2


def csv_input(rng):
    """Two well-formed records `id,tag,count;` in 12 cells. The counts sum
    to more than nine and the ids differ, so every job reaches the same set
    of bugs."""
    cells = []
    for rec_id in rng.sample("123456789", 2):
        cells += [ord(rec_id), ord(","),
                  ord(rng.choice("abc")), ord(","),
                  ord(rng.choice("567")), ord(";")]
    return cells


def checksum_input(rng):
    """A frame with the right magic, a known type and a seeded body."""
    return [77, rng.randint(1, 3), rng.randint(1, 3)] + \
        [rng.randint(0, 99) for _ in range(5)] + \
        [rng.randint(1, 9), rng.randint(0, 9)]


def csv_job(rng, index, jobs, budget=CSV_BUDGET):
    return {
        "id": "csv-%d" % index,
        "entry": "main",
        "policy": "unsound",
        "max_tests": budget,
        "jobs": jobs,
        "explore_paths": True,
        "input": csv_input(rng),
        "seed": rng.randrange(1 << 31),
        "expect": {"kind": "known-bugs", "known": list(CSV_BUGS),
                   "required": list(CSV_BUGS)},
    }


def checksum_job(rng, index, jobs):
    return {
        "id": "checksum-%d" % index,
        "entry": "main",
        "policy": "unsound",
        "max_tests": CSV_BUDGET,
        "jobs": jobs,
        "explore_paths": True,
        "input": checksum_input(rng),
        "seed": rng.randrange(1 << 31),
        "expect": {"kind": "known-bugs", "known": list(CHECKSUM_BUGS),
                   "required": list(CHECKSUM_BUGS[:1])},
    }


def csv_jobs(seed):
    rng = rng_for("csv-dart-j2", seed)
    programs = [read_program("csv_scanner.ml"), read_program("checksum.ml")]
    jobs = []
    for i in range(5 * CSV_DART_ROUNDS):
        if i % 5 < 4:
            job = csv_job(rng, i, CSV_DART_WORKERS, CSV_DART_BUDGET)
            job["program"] = 0
        else:
            job = checksum_job(rng, i, CSV_DART_WORKERS)
            job["program"] = 1
        jobs.append(job)
    return programs, jobs


# ---------------------------------------------------------------------------
# serve-mix: open-loop traffic against hotg-serve

# Jobs per second offered: about a fifth of the 45-50 jobs/s that
# `hotg-serve --workers 2` answers on this mix when kept busy
# (perfbench/capacity.py, 4-vCPU VM, at the benchmark's introduction).
SERVE_RATE = 10.0
# One round of ten arrivals; the mix is the same for every seed. A `+`
# repeats an earlier configuration of its kind (seeded choice), so 20% of
# the jobs can be answered from the cross-session fabric cache. The shares
# keep both percentiles inside one class of jobs: paper examples and
# repeats are the fastest 40%, csv and checksum the middle 40% (p50), fresh
# lexers the slowest 20% (p90).
SERVE_ROUND = ("lexer", "paper", "csv", "checksum", "paper",
               "lexer", "csv+", "checksum", "csv", "paper+")

PAPER_JOBS = (
    # (program, entry, policy, extra fields, bug messages)
    ("obscure.ml", "obscure", "higher-order", {"input": [33, 42]},
     ["obscure: then branch reached"]),
    ("maze.ml", "maze", "higher-order",
     {"explore_paths": True, "max_tests": 64}, ["maze: treasure reached"]),
    ("compose.ml", "main", "higher-order", {}, ["composed: both layers solved"]),
    ("overflow_guard.ml", "store", "higher-order", {},
     ["array index out of bounds", "division by zero"]),
)


def serve_job(rng, kind, index):
    """One fresh serve-mix job (without its id) and its program source.
    `kind` is "lexer", "csv", "checksum" or an index into PAPER_JOBS."""
    if kind == "lexer":
        source, spec = lexer_program(rng, 6 + index % 3, 2, index)
        return source, {"entry": "lex_main", "policy": "higher-order",
                        "max_tests": LEXER_BUDGET, "explore_paths": True,
                        "input": [ord("a")] * 8,
                        "expect": {"kind": "lexer", **spec}}
    if kind in ("csv", "checksum"):
        job = (csv_job if kind == "csv" else checksum_job)(rng, index, 1)
        job.pop("id")
        job.pop("jobs")
        name = "csv_scanner.ml" if kind == "csv" else "checksum.ml"
        return read_program(name), job
    name, entry, policy, extra, bugs = PAPER_JOBS[kind]
    job = {"entry": entry, "policy": policy, **extra,
           "expect": {"kind": "known-bugs", "known": bugs, "required": bugs}}
    return read_program(name), job


def serve_jobs(seed, seconds):
    """Arrivals for `seconds` of traffic at SERVE_RATE, with seeded jitter
    of up to a quarter interval around each fixed-rate slot."""
    rng = rng_for("serve-mix", seed)
    interval = 1.0 / SERVE_RATE
    programs, jobs, by_kind, papers = [], [], {}, 0
    for i in range(int(seconds * SERVE_RATE)):
        slot = SERVE_ROUND[i % len(SERVE_ROUND)]
        kind = slot.rstrip("+")
        which = kind
        if kind == "paper":
            # The paper examples take turns and a repeat repeats the latest
            # one, so every seed's mix has the same shares.
            if slot.endswith("+"):
                which = (papers - 1) % len(PAPER_JOBS)
            else:
                which, papers = papers % len(PAPER_JOBS), papers + 1
        earlier = by_kind.setdefault(which, [])
        if slot.endswith("+"):
            job = dict(rng.choice(earlier), repeat=True)
        else:
            source, job = serve_job(rng, which, i)
            programs.append(source)
            job.update(program=len(programs) - 1, kind=kind, repeat=False)
            earlier.append(job)
        job["id"] = "serve-%d" % i
        job["due_s"] = round(
            (i + 0.5 + rng.uniform(-0.25, 0.25)) * interval, 6)
        jobs.append(job)
    return programs, jobs


def serve_request(programs, job):
    """The wire request of one serve-mix job."""
    req = {"id": job["id"], "program": programs[job["program"]]}
    for key in ("entry", "policy", "max_tests", "explore_paths", "input",
                "seed"):
        if key in job:
            req[key] = job[key]
    return req


def hotg_run_args(job):
    """hotg-run flags equivalent to one job (the serve byte-identity check)."""
    args = ["--entry", job["entry"], "--policy", job["policy"]]
    if "max_tests" in job:
        args += ["--max-tests", str(job["max_tests"])]
    if job.get("explore_paths"):
        args.append("--explore-paths")
    if "input" in job:
        args += ["--input", ",".join(str(c) for c in job["input"])]
    if "seed" in job:
        args += ["--seed", str(job["seed"])]
    return args
