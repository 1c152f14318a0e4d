"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced eikq function, in every eikq module
namespace that binds it (and on `RationalMatrix` for its methods), by a
wrapper that records a span: name, start, end and the enclosing span.
Spans live in flat arrays in memory; `Tracer.restore` puts the original
objects back.  `layer_metrics` turns the spans and the counts the wrappers
take from arguments and return values into `<module>.<function>.<quantity>`
metrics.  A span's self time is its duration minus the durations of its
direct children; since spans nest on one thread, self times plus the time
outside every span add up to the traced phase's wall time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from functools import wraps

import numpy as np

# (module, attribute, span name); a dotted attribute is a method.
TARGETS = (
    ("polyring", "substitute_linear", "polyring.substitute_linear"),
    ("polyring", "poly_mul", "polyring.poly_mul"),
    ("polyring", "poly_square", "polyring.poly_square"),
    ("polyring", "gradient_norm_sq", "polyring.gradient_norm_sq"),
    ("polyring", "radial_power", "polyring.radial_power"),
    ("polyring", "laplacian", "polyring.laplacian"),
    ("polyring", "poly_from_text", "polyring.poly_from_text"),
    ("polyring", "poly_to_text", "polyring.poly_to_text"),
    ("matrices", "RationalMatrix.__matmul__", "matrices.matmul"),
    ("matrices", "RationalMatrix.kernel_basis", "matrices.kernel_basis"),
    ("matrices", "RationalMatrix.is_orthogonal", "matrices.is_orthogonal"),
    ("matrices", "RationalMatrix.inverse", "matrices.inverse"),
    ("matrices", "RationalMatrix.from_float", "matrices.from_float"),
    ("matrices", "orthonormalize_rational", "matrices.orthonormalize_rational"),
    ("pencils", "theta3_basis", "pencils.theta3_basis"),
    ("pencils", "eta_identity_residual", "pencils.eta_identity_residual"),
    ("pencils", "tau_polynomials", "pencils.tau_polynomials"),
    ("analysis", "check_eikonal", "analysis.check_eikonal"),
    ("analysis", "check_pencil", "analysis.check_pencil"),
    ("analysis", "check_munzner_second", "analysis.check_munzner_second"),
    ("analysis", "check_system", "analysis.check_system"),
    ("analysis", "check_structure_identities", "analysis.check_structure_identities"),
    ("constructors", "assemble_from_normal_form", "constructors.assemble_from_normal_form"),
    ("constructors", "make_primitive", "constructors.make_primitive"),
    ("constructors", "search_isoparametric_pencil", "constructors.search_isoparametric_pencil"),
    ("normalform", "extract_normal_form", "normalform.extract_normal_form"),
    ("normalform", "sphere_maximize", "normalform.sphere_maximize"),
    ("classifier", "classify", "classifier.classify"),
    ("cli", "main", "cli.main"),
)

SEARCH = "constructors.search_isoparametric_pencil"
# calls made while a search runs, counted as the search's filter stages
SEARCH_COUNTS = {
    "analysis.check_pencil": "constructors.search.pencils_screened",
    "pencils.theta3_basis": "constructors.search.pencils_admissible",
    "constructors.assemble_from_normal_form": "constructors.search.grid_points",
}


# counts the wrappers take from arguments and return values
COUNTS = (
    "polyring.substitute_linear.out_terms", "polyring.substitute_linear.max_coeff_bits",
    "polyring.poly_mul.term_products", "polyring.poly_square.term_products",
    "normalform.extract_normal_form.errors", "normalform.route.rotation",
    "normalform.route.identity", "normalform.route.float",
    "constructors.search.hits", *SEARCH_COUNTS.values(),
)


class SpanRecorder:
    """Nested spans in flat arrays: name index, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = Counter()  # name index -> spans of that name now open
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.open[name_id] += 1
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self.open[self.name_of[index]] -= 1

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children."""
        start = np.frombuffer(self.start, dtype=float)
        duration = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return duration - child

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float),
        )


def _coeff_bits(poly) -> int:
    return max((max(int(c.numerator).bit_length(), int(c.denominator).bit_length())
                for c in poly.terms.values()), default=0)


def _route(args, kwargs) -> str:
    rotation = args[1] if len(args) > 1 else kwargs.get("rotation")
    if rotation is None:
        return "float"
    n = rotation.n_rows
    is_identity = all(rotation.entries[i][j] == (i == j) for i in range(n) for j in range(n))
    return "identity" if is_identity else "rotation"


class Tracer:
    """Installs and removes the span-recording wrappers; keeps the counts."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self.counts: Counter = Counter()
        self._patched: list = []
        self._search = self.recorder.name_id(SEARCH)

    def _in_search(self) -> bool:
        return self.recorder.open[self._search] > 0

    def _before(self, name: str, args, kwargs) -> None:
        counts = self.counts
        if name == "polyring.poly_mul":
            counts[name + ".term_products"] += len(args[0].terms) * len(args[1].terms)
        elif name == "polyring.poly_square":
            k = len(args[0].terms)
            counts[name + ".term_products"] += k * (k + 1) // 2
        elif name in SEARCH_COUNTS and self._in_search():
            counts[SEARCH_COUNTS[name]] += 1

    def _after(self, name: str, result, args, kwargs) -> None:
        counts = self.counts
        if name == "polyring.substitute_linear":
            counts[name + ".out_terms"] += len(result.terms)
            bits = _coeff_bits(result)
            counts[name + ".max_coeff_bits"] = max(counts[name + ".max_coeff_bits"], bits)
        elif name == "analysis.check_pencil":
            counts[name + ".passed"] += bool(result.passed)
        elif name == "matrices.orthonormalize_rational":
            counts[name + ".found"] += result is not None
        elif name == "normalform.extract_normal_form":
            counts["normalform.route." + _route(args, kwargs)] += 1
        elif name == SEARCH:
            counts["constructors.search.hits"] += len(result)

    def _wrap(self, fn, name: str):
        recorder = self.recorder
        name_id = recorder.name_id(name)
        before, after, counts = self._before, self._after, self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            before(name, args, kwargs)
            span = recorder.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.finish(span)
                counts[name + ".errors"] += 1
                raise
            recorder.finish(span)
            after(name, result, args, kwargs)
            return result

        wrapper.perfbench_span = name
        return wrapper

    def install(self) -> None:
        import eikq.cli  # noqa: F401  (loads every module that binds a target)

        modules = [m for key, m in sys.modules.items() if key == "eikq" or key.startswith("eikq.")]
        for module_name, attribute, name in TARGETS:
            module = sys.modules[f"eikq.{module_name}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, name))
                else:
                    replacement = self._wrap(raw, name)
                setattr(cls, method, replacement)
                self._patched.append((cls, method, raw))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def installed_wrappers() -> list[str]:
    """Names of eikq attributes that are currently trace wrappers (should be none)."""
    found = []
    for key, mod in list(sys.modules.items()):
        if key != "eikq" and not key.startswith("eikq."):
            continue
        for attr, value in vars(mod).items():
            targets = [value] + ([v for v in vars(value).values()] if isinstance(value, type) else [])
            for target in targets:
                func = getattr(target, "__func__", target)
                if hasattr(func, "perfbench_span"):
                    found.append(f"{key}.{attr}")
    return sorted(set(found))


def nesting_problems(recorder: SpanRecorder, start: float, end: float) -> list[str]:
    """Spans must lie inside [start, end], children inside their parents, and
    top-level spans must not overlap; only then do self times partition the
    traced time."""
    begin = np.frombuffer(recorder.start, dtype=float)
    finish = np.frombuffer(recorder.end, dtype=float)
    parent = np.frombuffer(recorder.parent, dtype=np.int32)
    problems = []
    if len(begin) and (begin.min() < start or finish.max() > end):
        problems.append("a span lies outside the traced phase")
    nested = parent >= 0
    if np.any(begin[nested] < begin[parent[nested]]) or np.any(finish[nested] > finish[parent[nested]]):
        problems.append("a span lies outside its parent")
    top = np.argsort(begin[~nested])
    if np.any(begin[~nested][top][1:] < finish[~nested][top][:-1]):
        problems.append("top-level spans overlap")
    return problems


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Aggregate spans and counts into `<module>.<function>.<quantity>` values."""
    rec = tracer.recorder
    names = np.frombuffer(rec.name_of, dtype=np.int32)
    start = np.frombuffer(rec.start, dtype=float)
    duration = np.frombuffer(rec.end, dtype=float) - start
    self_time = rec.self_times()
    top = np.frombuffer(rec.parent, dtype=np.int32) < 0
    out: dict = {}
    for _, _, name in TARGETS:
        mask = names == (rec.names.index(name) if name in rec.names else -1)
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.self_s"] = float(self_time[mask].sum())
        out[f"{name}.total_s"] = float(duration[mask].sum())
    c = tracer.counts
    for key in COUNTS:
        out[key] = c[key]
    out["matrices.orthonormalize_rational.found_ratio"] = _ratio(
        c["matrices.orthonormalize_rational.found"], out["matrices.orthonormalize_rational.calls"])
    out["analysis.check_pencil.pass_ratio"] = _ratio(
        c["analysis.check_pencil.passed"], out["analysis.check_pencil.calls"])
    extract = out["normalform.extract_normal_form.calls"]
    out["normalform.extract_normal_form.useful_ratio"] = _ratio(
        extract - c["normalform.extract_normal_form.errors"], extract)
    out["constructors.search.hit_ratio"] = _ratio(
        out["constructors.search.hits"], out["constructors.search.grid_points"])
    inside = float(duration[top].sum())
    out["trace.spans"] = len(start)
    out["trace.outside_s"] = wall - inside
    out["trace.self_sum_s"] = float(self_time.sum())
    return out
