"""The `tool_corpus` jobs: unmodified installed binaries on seeded inputs.

Each job is a command line plus the input files it reads, generated from
the run seed. Inputs are sized for everyday use of each tool (a few MB of
text, tens of thousands of records); none is shrunk below that to stay
clear of the interposer's known limits, which the traced run reports as
`preload.large_live_limit` and `preload.class_live_mb_limit`.
"""

import json
import os
import random
import shutil
import sys

# Words drawn by every generator; a fixed vocabulary keeps inputs
# compressible like real text while the seed changes their order.
_SYLLABLES = ["ka", "lo", "mi", "ne", "ru", "ta", "shi", "vo", "en", "pa",
              "qu", "ix", "da", "or", "be", "zu"]


def _words(rng, n):
    return ["".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4)))
            for _ in range(n)]


def _text(rng, nbytes):
    vocab = _words(rng, 4000)
    out, size = [], 0
    while size < nbytes:
        line = " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 14)))
        out.append(line)
        size += len(line) + 1
    return "\n".join(out) + "\n"


def _c_source(rng, functions):
    parts = ["#include <stddef.h>\n"]
    for i in range(functions):
        a, b, c = rng.randint(2, 97), rng.randint(3, 89), rng.randint(1, 31)
        parts.append(
            f"struct s{i} {{ int a[{a % 7 + 1}]; double d; struct s{i} *next; }};\n"
            f"static int t{i}[{c + 8}];\n"
            f"long f{i}(long x, const struct s{i} *p) {{\n"
            f"  long acc = {a};\n"
            f"  for (int k = 0; k < {c + 8}; k++) {{\n"
            f"    t{i}[k] = (int)(x * {b} + k);\n"
            f"    acc += (x ^ (acc >> {c % 13 + 1})) * {b} + t{i}[k];\n"
            f"    if (acc % {a} == {c % a}) acc -= p ? p->a[0] : k;\n"
            f"  }}\n"
            f"  switch (x & 3) {{ case 0: return acc; case 1: return acc * {a};"
            f" case 2: return acc / {b}; default: return acc - {c}; }}\n"
            f"}}\n")
    return "".join(parts)


def resolve_python():
    """The real interpreter behind `python3`, not a launcher shim."""
    return os.path.realpath(sys.executable)


def make_jobs(workdir, seed, variant):
    """Writes one round of inputs under `workdir` and returns its jobs.

    A job is `(name, argv, stdin_path)`. Its byte-exact output is its
    stdout, or, when `argv` holds the placeholder `{out}`, the file the
    tool writes there.
    """
    rng = random.Random(f"{seed}/{variant}")
    d = os.path.join(workdir, f"v{variant}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)

    def path(name, content, mode="w"):
        p = os.path.join(d, name)
        with open(p, mode) as f:
            f.write(content)
        return p

    text = _text(rng, 1 << 20)
    blob = path("text.txt", text)
    sort_in = path("sort.txt", "".join(
        f"{rng.randrange(10**6)} {w} {rng.choice(_SYLLABLES)}\n"
        for w in _words(rng, 100_000)))

    tree = os.path.join(d, "tree")
    for i in range(300):
        sub = os.path.join(tree, f"dir{i % 17}")
        os.makedirs(sub, exist_ok=True)
        start = rng.randrange(len(text) - 30_000)
        with open(os.path.join(sub, f"file{i}.txt"), "w") as f:
            f.write(text[start:start + rng.randint(1_000, 30_000)])

    rows = [f"({i},'{w}',{rng.randrange(1000)},{rng.random():.6f})"
            for i, w in enumerate(_words(rng, 20_000))]
    sql = path("script.sql", (
        "CREATE TABLE t(id INTEGER PRIMARY KEY, w TEXT, g INTEGER, x REAL);\n"
        "BEGIN;\n"
        + "".join(f"INSERT INTO t VALUES {r};\n" for r in rows)
        + "COMMIT;\n"
        "CREATE INDEX tg ON t(g);\n"
        "SELECT g, count(*), round(sum(x), 3), max(w) FROM t GROUP BY g "
        "ORDER BY count(*) DESC, g LIMIT 25;\n"
        "SELECT w, count(*) FROM t GROUP BY w ORDER BY 2 DESC, 1 LIMIT 25;\n"
        "SELECT a.g, count(*) FROM t a JOIN t b ON a.g = b.g AND b.id % 97 = 0 "
        "GROUP BY a.g ORDER BY 2 DESC, 1 LIMIT 10;\n"))

    perl_script = path("count.pl", (
        "my %n; my %first;\n"
        "while (my $l = <STDIN>) { chomp $l; my $i = 0;\n"
        "  for my $w (split / /, $l) { $n{$w}++; $first{\"$w/\" . ($i++ % 25)} //= $.; } }\n"
        "my @k = sort { $n{$b} <=> $n{$a} || $a cmp $b } keys %n;\n"
        "print scalar(@k), ' ', scalar(keys %first), \"\\n\";\n"
        "print \"$_ $n{$_}\\n\" for @k[0..29];\n"))

    py_script = path("count.py", (
        "import sys, collections, hashlib, json\n"
        "words = sys.stdin.read().split()\n"
        "c = collections.Counter(words)\n"
        "pairs = collections.Counter(zip(words, words[1:]))\n"
        "top = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:30]\n"
        "print(len(c), len(pairs), hashlib.sha256(' '.join(sorted(c)).encode()).hexdigest())\n"
        "print(json.dumps(top))\n"))

    objs = [{"id": i, "k": rng.randrange(200), "v": rng.randrange(10_000),
             "w": w, "tags": [rng.randrange(50) for _ in range(rng.randint(0, 4))]}
            for i, w in enumerate(_words(rng, 20_000))]
    jq_in = path("objs.json", json.dumps(objs))
    c_file = path("unit.c", _c_source(rng, 50))

    py = resolve_python()
    return [
        ("sort", ["sort", "-k2,2", "-k1,1n", sort_in], None),
        ("gzip", ["gzip", "-6", "-n", "-c", blob], None),
        ("xz", ["xz", "-3", "-T1", "-c", blob], None),
        ("bzip2", ["bzip2", "-9", "-c", blob], None),
        ("tar", ["tar", "--sort=name", "--mtime=@0", "--owner=0", "--group=0",
                 "--numeric-owner", "-C", d, "-cf", "-", "tree"], None),
        ("sqlite3", ["sqlite3", ":memory:", f".read {sql}"], None),
        ("perl", ["perl", perl_script], blob),
        ("python3", [py, "-I", "-S", py_script], blob),
        ("jq", ["jq", "-c", "group_by(.k) | map({k: .[0].k, n: length, "
                "s: (map(.v) | add), t: (map(.tags | length) | add)})", jq_in], None),
        ("gcc", ["gcc", "-O1", "-c", c_file, "-o", "{out}"], None),
    ]
