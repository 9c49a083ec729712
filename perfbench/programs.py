"""The programs the benchmark runs, with the inputs it runs them on.

* ``cold_programs()``: the 13 evaluation programs of the paper (the ten
  jolden drivers, the Table 2 trees harness, the lambda compiler and
  CorONA), each with a small input (``COLD_JOLDEN_ARGS``), so a one-shot
  run spends its time in the front end, the specializer and code
  emission rather than in execution.
* ``STEADY_ARGS``: per jolden driver, the ``Main.run`` arguments for the
  steady-state workload.  They are sized so that every driver's warm
  codegen call falls within 2x of the others (5-10 ms on a 2-core x86
  VM), so no driver dominates the per-op latencies.
* ``BENCH_MAIN``: for the three sharing programs, a ``BenchMain`` class
  appended to the program text.  Its no-argument ``main`` is the entry
  point of both the cold run and the serve sessions of ``edit-check``.

The program text is read from the package (``repro.programs``); only
``BenchMain`` is the benchmark's own.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

COLD_JOLDEN_ARGS: Dict[str, Tuple] = {
    "bh": (4, 1, 7),
    "bisort": (3, 12345),
    "em3d": (8, 2, 2, 777),
    "health": (1, 4, 42),
    "mst": (8, 321),
    "perimeter": (4,),
    "power": (1, 1, 2, 1),
    "treeadd": (4, 1),
    "tsp": (7, 99),
    "voronoi": (8, 5),
}

STEADY_ARGS: Dict[str, Tuple] = {
    "bh": (12, 2, 7),
    "bisort": (5, 12345),
    "em3d": (64, 4, 4, 777),
    "health": (2, 20, 42),
    "mst": (48, 321),
    "perimeter": (16,),
    "power": (4, 4, 5, 2),
    "treeadd": (9, 4),
    "tsp": (63, 99),
    "voronoi": (28, 5),
}

#: Entry classes for the sharing programs.  Each ``main`` exercises the
#: program's view changes and prints what it computed, so both the
#: result and the printed output are compared with the walker.
BENCH_MAIN: Dict[str, str] = {
    "trees": """
class BenchMain {
  int height() { return 6; }
  int pick(int a) { return a; }
  int main() {
    Harness h = new Harness();
    tree!.Node root = h.create(height());
    int before = h.traverse(root);
    xtree!.Node x = h.change(root);
    int after = h.traverseExt(x);
    int copy = h.traverseExt(h.translate(root));
    Sys.print(before);
    Sys.print(after);
    return pick(after + copy);
  }
}
""",
    "lambdac": """
class BenchMain {
  int fuel() { return 200; }
  int pick(int a) { return a; }
  int main() {
    Normalizer nz = new Normalizer();
    sumpair!.Exp p = new sumpair.Pair(new sumpair.Var("a"), new sumpair.Var("b"));
    sumpair!.Exp f = new sumpair.Snd(p);
    sumpair!.Exp c = new sumpair.Case(new sumpair.Inl(new sumpair.Var("u")),
        "x", new sumpair.Var("x"), "y", new sumpair.Var("y"));
    base!.Exp t1 = f.translate(new sumpair.Translator());
    base!.Exp t2 = c.translate(new sumpair.Translator());
    Sys.print(nz.show(nz.normalize(t1, fuel())));
    Sys.print(nz.show(nz.normalize(t2, fuel())));
    return pick(7);
  }
}
""",
    "corona": """
class BenchMain {
  int fetches() { return 12; }
  int pick(int a) { return a; }
  int main() {
    Main m = new Main();
    corona!.Net net = m.boot(8);
    m.publishAll(net, 16);
    int bad = m.workloadVia(net, 0, fetches(), 16, 3);
    m.evolveToPC(net);
    bad = bad + m.workloadVia(net, 1, fetches(), 16, 5);
    m.evolveToBee(net);
    int replicated = m.maintainBee(net, 2);
    bad = bad + m.workloadVia(net, 2, fetches(), 16, 7);
    Sys.print(net.lookups);
    Sys.print(net.totalHops);
    return pick(bad * 1000 + replicated);
  }
}
""",
}


class Cold(NamedTuple):
    """One cold-run program: full source text, entry point and its args."""

    name: str
    source: str
    entry: str
    args: Tuple


def sharing_source(name: str) -> str:
    """The program text of a sharing program with ``BenchMain`` appended."""
    from repro.programs.corona.source import SOURCE as CORONA
    from repro.programs.lambdac import SOURCE as LAMBDAC
    from repro.programs.trees import SOURCE as TREES

    base = {"trees": TREES, "lambdac": LAMBDAC, "corona": CORONA}[name]
    return base + BENCH_MAIN[name]


def jolden_source(name: str) -> str:
    from repro.programs import jolden

    return jolden.BY_NAME[name].SOURCE


def cold_programs() -> List[Cold]:
    """The 13 cold-run programs in a fixed order (jolden in the paper's
    Table 1 order, then trees, lambdac, corona)."""
    from repro.programs import jolden

    progs = [
        Cold(m.NAME, m.SOURCE, "Main.run", COLD_JOLDEN_ARGS[m.NAME])
        for m in jolden.ALL
    ]
    for name in ("trees", "lambdac", "corona"):
        progs.append(Cold(name, sharing_source(name), "BenchMain.main", ()))
    return progs
