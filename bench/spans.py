"""Span tracing of apeuler's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function in every apeuler module
namespace that holds it (``engine`` imports ``kappa``, ``character_group``
and others by name, ``cli`` imports ``sieve`` ...) and wraps the traced
methods on their classes.  Every call records a span: name, start, end,
parent span and job id.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MARK = "__bench_traced__"

# (module, function, span name, distinct key): functions wrapped in every namespace.
FUNCTIONS = (
    ("apeuler.arith", "sieve", "arith.sieve", None),
    ("apeuler.characters", "character_group", "characters.character_group", None),
    ("apeuler.lseries", "hurwitz_zeta", "lseries.hurwitz_zeta",
     lambda s, x, params=None: (complex(s), float(x))),
    ("apeuler.lseries", "dirichlet_l", "lseries.dirichlet_l",
     lambda s, chi, params=None: (complex(s), chi)),
    ("apeuler.engine", "y_p", "engine.y_p",
     lambda s, q, a, p_min, depth, ls: (complex(s), q, a, p_min, depth)),
    ("apeuler.engine", "ap_product", "engine.ap_product", None),
    ("apeuler.engine", "rational_product", "engine.rational_product", None),
    ("apeuler.engine", "multi_term_product", "engine.multi_term_product", None),
    ("apeuler.engine", "continuation_demo", "engine.continuation_demo", None),
    ("apeuler.witt", "necklace_m", "witt.necklace_m", None),
    ("apeuler.witt", "kappa", "witt.kappa", None),
    ("apeuler.witt", "lambert_log_expand", "witt.lambert_log_expand", None),
    ("apeuler.oracle", "oracle_log_product", "oracle.oracle_log_product", None),
    ("apeuler.cli", "execute_job", "cli.execute_job", None),
)
# (module, class, method, span name, distinct key): methods wrapped on the class.
# ``lseries.l_cache`` and ``lseries.log_truncated_l`` are the LSeries cache
# layers; a call of either that opens no child span was a cache hit.
METHODS = (
    ("apeuler.characters", "DirichletCharacter", "__pow__", "characters.pow", None),
    ("apeuler.characters", "DirichletCharacter", "__call__", "characters.call", None),
    ("apeuler.lseries", "LSeries", "dirichlet_l", "lseries.l_cache", None),
    ("apeuler.lseries", "LSeries", "log_truncated_l", "lseries.log_truncated_l",
     lambda self, s, chi, p_min: (complex(s), chi, p_min)),
    ("apeuler.lseries", "LSeries", "zeta", "lseries.zeta", None),
)
SPAN_NAMES = tuple(f[2] for f in FUNCTIONS) + tuple(m[3] for m in METHODS)


def _program_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "apeuler" or n.startswith("apeuler.")]


def leftover_wrappers() -> list[str]:
    """Names in apeuler namespaces or traced classes that still hold a wrapper."""
    found = []
    for mod in _program_modules():
        for attr, val in vars(mod).items():
            if getattr(val, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type):
                found += [f"{mod.__name__}.{attr}.{m}" for m, v in vars(val).items() if getattr(v, MARK, False)]
    return found


class Tracer:
    """Span store plus the wrappers that fill it; ``install`` / ``uninstall`` patch and restore."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._nid = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")  # character_group: the call built a group (cache miss)
        self.job_id = -1
        self._stack: list[int] = []
        self._keys: dict[int, set] = {}
        self._distinct_before: dict[int, int] = {}  # distinct keys of finished cache lifetimes
        self._new_keys: dict[tuple[int, int], int] = {}  # (job, name) -> keys first seen there
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn, key_fn):
        nid = self._nid[span_name]
        keys = self._keys.setdefault(nid, set()) if key_fn else None
        miss_counter = getattr(fn, "cache_info", None)
        stack, tr = self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.job.append(tr.job_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.flag.append(0)
            if keys is not None:
                k = key_fn(*args, **kwargs)
                if k not in keys:
                    keys.add(k)
                    jk = (tr.job_id, nid)
                    tr._new_keys[jk] = tr._new_keys.get(jk, 0) + 1
            misses = miss_counter().misses if miss_counter else 0
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
                if miss_counter and miss_counter().misses > misses:
                    tr.flag[idx] = 1

        setattr(wrapper, MARK, True)
        return wrapper

    def new_context(self) -> None:
        """Start a new cache lifetime (a fresh LSeries): later keys count as distinct again."""
        for nid, keys in self._keys.items():
            self._distinct_before[nid] = self._distinct_before.get(nid, 0) + len(keys)
            keys.clear()

    def install(self) -> None:
        modules = _program_modules()
        for mod_name, attr, span_name, key_fn in FUNCTIONS:
            owner = sys.modules.get(mod_name)
            if owner is None:  # e.g. apeuler.cli in a library-only run
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(span_name, orig, key_fn)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        for mod_name, cls_name, attr, span_name, key_fn in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(span_name, orig, key_fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name, parent, dur

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, distinct keys, total seconds, self seconds, leaf calls, flagged calls.

        Distinct keys are counted within each cache lifetime (see ``new_context``).
        """
        name, parent, dur = self._arrays()
        n = len(name)
        inner = parent >= 0
        child_s = np.bincount(parent[inner], weights=dur[inner], minlength=n)
        children = np.bincount(parent[inner], minlength=n)
        self_s = dur - child_s
        flag = np.frombuffer(self.flag, dtype=np.int8)
        out = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            out[nm] = {
                "calls": int(sel.sum()),
                "distinct": self._distinct_before.get(nid, 0) + len(self._keys.get(nid, ())),
                "s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
                "leaf": int((children[sel] == 0).sum()),
                "flagged": int(flag[sel].sum()),
            }
        return out

    def per_job(self, span_names: tuple[str, ...]) -> dict[int, dict[str, list[int]]]:
        """Per job id: [calls, distinct keys first seen in that job] for each span name."""
        name, _, _ = self._arrays()
        job = np.frombuffer(self.job, dtype=np.intc)
        out: dict[int, dict[str, list[int]]] = {}
        for nm in span_names:
            nid = self._nid[nm]
            ids, counts = np.unique(job[name == nid], return_counts=True)
            for j, c in zip(ids.tolist(), counts.tolist()):
                out.setdefault(j, {})[nm] = [c, self._new_keys.get((j, nid), 0)]
        return out

    def dump(self, path: Path) -> None:
        """Write every span, with the span-name table, as one npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc), job=np.frombuffer(self.job, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float))


def merge(summaries: list[dict[str, dict]]) -> dict[str, dict]:
    """Sum per-process summaries (each child process is its own cold program)."""
    out: dict[str, dict] = {}
    for summ in summaries:
        for nm, fields in summ.items():
            acc = out.setdefault(nm, dict.fromkeys(fields, 0))
            for f, v in fields.items():
                acc[f] += v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict[str, dict], cli: dict[str, float], overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from a (merged) summary."""
    hz, dl, lc, lt = s["lseries.hurwitz_zeta"], s["lseries.dirichlet_l"], s["lseries.l_cache"], s["lseries.log_truncated_l"]
    yp, cg = s["engine.y_p"], s["characters.character_group"]
    m = {
        "lseries.hurwitz_zeta.calls": hz["calls"],
        "lseries.hurwitz_zeta.distinct": hz["distinct"],
        "lseries.hurwitz_zeta.useful_ratio": _ratio(hz["distinct"], hz["calls"]),
        "lseries.hurwitz_zeta.s": hz["s"],
        "characters.pow.calls": s["characters.pow"]["calls"],
        "characters.pow.s": s["characters.pow"]["s"],
        "characters.call.calls": s["characters.call"]["calls"],
        "lseries.dirichlet_l.calls": dl["calls"],
        "lseries.dirichlet_l.distinct": dl["distinct"],
        "lseries.dirichlet_l.self_s": dl["self_s"],
        "lseries.l_cache.hit_ratio": _ratio(lc["leaf"], lc["calls"]),
        "lseries.log_truncated_l.calls": lt["calls"],
        "lseries.log_truncated_l.distinct": lt["distinct"],
        "lseries.log_truncated_l.hit_ratio": _ratio(lt["leaf"], lt["calls"]),
        "lseries.log_truncated_l.self_s": lt["self_s"],
        "lseries.zeta.calls": s["lseries.zeta"]["calls"],
        "engine.y_p.calls": yp["calls"],
        "engine.y_p.distinct": yp["distinct"],
        "engine.y_p.useful_ratio": _ratio(yp["distinct"], yp["calls"]),
        "engine.y_p.self_s": yp["self_s"],
    }
    for fam in ("ap_product", "rational_product", "multi_term_product", "continuation_demo"):
        m[f"engine.{fam}.s"] = s[f"engine.{fam}"]["s"]
    for fn in ("necklace_m", "kappa", "lambert_log_expand"):
        m[f"witt.{fn}.calls"] = s[f"witt.{fn}"]["calls"]
        m[f"witt.{fn}.s"] = s[f"witt.{fn}"]["s"]
    m.update({
        "characters.character_group.calls": cg["calls"],
        "characters.character_group.builds": cg["flagged"],
        "characters.character_group.s": cg["s"],
        "arith.sieve.calls": s["arith.sieve"]["calls"],
        "arith.sieve.s": s["arith.sieve"]["s"],
        "cli.import.s": cli.get("import_s", 0.0),
        "cli.execute_job.s": s["cli.execute_job"]["s"],
        "cli.process.s": cli.get("process_s", 0.0),
        "oracle.oracle_log_product.calls": s["oracle.oracle_log_product"]["calls"],
        "oracle.oracle_log_product.s": s["oracle.oracle_log_product"]["s"],
        "trace.overhead_ratio": overhead_ratio,
    })
    return m
