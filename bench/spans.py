"""Span tracing of the strongprops layers, installed from outside the package.

Every wrapped function records one span: name, start, end, parent span and
the id of the benchmark op that caused it.  Spans stay in memory while the
run lasts; :meth:`Tracer.write` saves them once it ends and
:meth:`Tracer.layer_metrics` folds them into the per-layer metrics.

Callers bind names with ``from .numerics import rank``, so a wrapper is
installed in every module namespace (and module-level dict) that holds the
original function.  A few bindings get a span of their own on top of the
generic one, because the binding tells what the call is for: ``rank`` inside
``verifiers`` is the dual route, ``rank`` inside ``bifurcation`` is the
surjectivity test of J(0), ``lstsq_min_norm`` inside ``bifurcation`` is the
Gauss-Newton step, and so on.
"""

from __future__ import annotations

import functools
import io
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.linalg
import scipy.linalg

LAYERS = ("numerics", "patterns", "verifiers", "bifurcation", "arbitrary", "cli")

# (module, attribute, span name) of every wrapped function.
GENERIC = [
    ("numerics", "rank", "numerics.rank"),
    ("numerics", "nullspace", "numerics.nullspace"),
    ("numerics", "sym_eig", "numerics.sym_eig"),
    ("numerics", "real_schur", "numerics.real_schur"),
    ("numerics", "char_poly", "numerics.char_poly"),
    ("numerics", "lstsq_min_norm", "numerics.lstsq_min_norm"),
    ("patterns", "graph_closure_basis", "patterns.basis"),
    ("patterns", "edge_span_basis", "patterns.basis"),
    ("patterns", "cell_basis", "patterns.basis"),
    ("patterns", "sign_tangent_basis", "patterns.basis"),
    ("patterns", "skew_basis", "patterns.basis"),
    ("patterns", "full_basis", "patterns.basis"),
    ("patterns", "symmetric_basis", "patterns.basis"),
    ("patterns", "matrix_in_graph_class", "patterns.class_check"),
    ("patterns", "matrix_in_sign_class", "patterns.class_check"),
    ("verifiers", "verify_ssp", "verifiers.verify"),
    ("verifiers", "verify_smp", "verifiers.verify"),
    ("verifiers", "verify_sap", "verifiers.verify"),
    ("verifiers", "verify_nssp", "verifiers.verify"),
    ("verifiers", "_primal_nullspace", "verifiers.primal"),
    ("verifiers", "_witness_from", "verifiers.witness"),
    ("bifurcation", "solve_to_target", "bifurcation.solve"),
    ("bifurcation", "realize_spectrum", "bifurcation.realize"),
    ("bifurcation", "realize_multiplicity_list", "bifurcation.realize"),
    ("bifurcation", "realize_inertia", "bifurcation.realize"),
    ("bifurcation", "realize_rank", "bifurcation.realize"),
    ("bifurcation", "realize_q", "bifurcation.realize"),
    ("bifurcation", "realize_similar", "bifurcation.realize"),
    ("bifurcation", "realize_superpattern", "bifurcation.realize"),
    ("arbitrary", "certify_spectrally_arbitrary", "arbitrary.certify"),
    ("arbitrary", "certify_inertially_arbitrary", "arbitrary.certify"),
    ("arbitrary", "_certify_hypothesis", "arbitrary.hypothesis"),
    ("arbitrary", "nilpotent_nearby", "arbitrary.nilpotent_nearby"),
    ("cli", "main", "cli.main"),
]

# (namespace module, attribute, span name): an extra span around the
# generic one, for calls made from that namespace only.
BY_CALLER = [
    ("verifiers", "rank", "verifiers.dual"),
    ("bifurcation", "rank", "bifurcation.surjectivity"),
    ("bifurcation", "lstsq_min_norm", "bifurcation.gn_step"),
    ("bifurcation", "verify_ssp", "bifurcation.reverify"),
    ("bifurcation", "verify_smp", "bifurcation.reverify"),
    ("bifurcation", "verify_sap", "bifurcation.reverify"),
    ("bifurcation", "verify_nssp", "bifurcation.reverify"),
    ("bifurcation", "ssp_map", "bifurcation.map_build"),
    ("bifurcation", "smp_map", "bifurcation.map_build"),
    ("bifurcation", "sap_map", "bifurcation.map_build"),
    ("bifurcation", "similarity_map", "bifurcation.map_build"),
    ("bifurcation", "superpattern_map", "bifurcation.map_build"),
    ("arbitrary", "realize_similar", "arbitrary.realize_similar"),
    ("arbitrary", "verify_nssp", "arbitrary.hypothesis"),
    ("arbitrary", "rin", "arbitrary.hypothesis"),
]

# Per-layer metrics: name -> unit.  Values are per traced pass of the deck.
METRICS = {
    "numerics.svd.calls": "count",
    "numerics.svd.s": "s",
    "numerics.svd.gflop_computed": "Gflop",
    "numerics.rank.calls": "count",
    "numerics.rank.s": "s",
    "numerics.nullspace.calls": "count",
    "numerics.nullspace.s": "s",
    "numerics.sym_eig.calls": "count",
    "numerics.sym_eig.s": "s",
    "numerics.real_schur.calls": "count",
    "numerics.char_poly.calls": "count",
    "numerics.lstsq_min_norm.calls": "count",
    "numerics.lstsq_min_norm.s": "s",
    "numerics.self_s": "s",
    "patterns.basis.calls": "count",
    "patterns.basis.s": "s",
    "patterns.basis.mb_computed": "MB",
    "patterns.class_check.calls": "count",
    "patterns.class_check.s": "s",
    "patterns.self_s": "s",
    "verifiers.verify.calls": "count",
    "verifiers.verify.s": "s",
    "verifiers.verify.self_s": "s",
    "verifiers.primal.s": "s",
    "verifiers.dual.s": "s",
    "verifiers.witness.calls": "count",
    "verifiers.self_s": "s",
    "bifurcation.solve.calls": "count",
    "bifurcation.solve.failed": "count",
    "bifurcation.solve.accept_ratio": "ratio",
    "bifurcation.hops_per_realize": "count",
    "bifurcation.gn_iterations": "count",
    "bifurcation.jacobian.calls": "count",
    "bifurcation.jacobian.s": "s",
    "bifurcation.jacobian.self_s": "s",
    "bifurcation.expm_frechet.calls": "count",
    "bifurcation.expm_frechet.s": "s",
    "bifurcation.evaluate.calls": "count",
    "bifurcation.evaluate.s": "s",
    "bifurcation.gn_step.s": "s",
    "bifurcation.surjectivity.s": "s",
    "bifurcation.reverify.calls": "count",
    "bifurcation.reverify.s": "s",
    "bifurcation.map_build.s": "s",
    "bifurcation.self_s": "s",
    "arbitrary.targets": "count",
    "arbitrary.targets_ok_ratio": "ratio",
    "arbitrary.realize_similar.calls": "count",
    "arbitrary.realize_similar.failed": "count",
    "arbitrary.hypothesis.s": "s",
    "arbitrary.nilpotent_nearby.s": "s",
    "arbitrary.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.json_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
    "trace.ops_per_s_delta": "1/s",
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, start, end, parent index, op id, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _inside(self, name_id: int) -> bool:
        return any(self.spans[i][0] == name_id for i in self._stack)

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper around ``fn`` that records a span called ``name``.

        ``before(tracer, args, kwargs)`` and ``after(tracer, args, kwargs,
        result)`` add counts at the same boundary.
        """
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            row = [name_id, 0.0, 0.0, parent, self.op_id, False]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[5] = True
                raise
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value, is_dict=False):
        old = owner[attr] if is_dict else getattr(owner, attr)
        self._installed.append((owner, attr, old, is_dict))
        if is_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Point every strongprops binding of ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "strongprops" and not mod_name.startswith("strongprops."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, wrapper, is_dict=True)

    def install(self):
        """Wrap the layer boundaries of the imported strongprops package."""
        modules = {layer: sys.modules[f"strongprops.{layer}"] for layer in LAYERS}

        self._set(numpy.linalg, "svd", self.wrap("numerics.svd", numpy.linalg.svd, before=_count_svd))
        self._set(scipy.linalg, "expm_frechet", self.wrap("bifurcation.expm_frechet", scipy.linalg.expm_frechet))
        pmap = modules["bifurcation"].PerturbationMap
        self._set(pmap, "jacobian", self.wrap("bifurcation.jacobian", pmap.jacobian))
        self._set(pmap, "evaluate", self.wrap("bifurcation.evaluate", pmap.evaluate))

        hooks = {
            "patterns.basis": _count_basis,
            "arbitrary.certify": _count_certificate,
            "cli.main": _count_json_bytes,
        }
        for layer, attr, name in GENERIC:
            original = getattr(modules[layer], attr)
            self._replace_everywhere(original, self.wrap(name, original, after=hooks.get(name)))
        for layer, attr, name in BY_CALLER:
            module = modules[layer]
            self._set(module, attr, self.wrap(name, getattr(module, attr)))

    def uninstall(self):
        for owner, attr, old, is_dict in reversed(self._installed):
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._installed.clear()

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Save every span (columns plus the name table) as a .npz file."""
        table = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=table[:, 0].astype(np.int32),
            start=table[:, 1],
            end=table[:, 2],
            parent=table[:, 3].astype(np.int64),
            op_id=table[:, 4].astype(np.int64),
            failed=table[:, 5].astype(bool),
        )

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Fold the spans into the METRICS values, per traced pass."""
        n_names = len(self.names)
        calls = np.zeros(n_names)
        failed = np.zeros(n_names)
        inclusive = np.zeros(n_names)
        self_time = np.zeros(n_names)
        child_time = np.zeros(len(self.spans))
        for row in self.spans:
            if row[3] >= 0:
                child_time[row[3]] += row[2] - row[1]
        accepted_solves = 0
        outer_realize = 0
        realize_id = self._name_ids.get("bifurcation.realize", -1)
        solve_id = self._name_ids.get("bifurcation.solve", -1)
        for idx, (name_id, start, end, parent, _op, fail) in enumerate(self.spans):
            duration = end - start
            calls[name_id] += 1
            failed[name_id] += fail
            self_time[name_id] += duration - child_time[idx]
            # inclusive time counts only the outermost span of each name
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name_id:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                inclusive[name_id] += duration
                if name_id == realize_id:
                    outer_realize += 1
            if name_id == solve_id and not fail:
                accepted_solves += 1

        def get(array, name):
            i = self._name_ids.get(name)
            return float(array[i]) if i is not None else 0.0

        out: dict[str, float] = {}
        for metric in METRICS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = get(calls, span)
            elif field == "failed":
                out[metric] = get(failed, span)
            elif field == "s":
                out[metric] = get(inclusive, span)
            elif field == "self_s" and span in LAYERS:
                out[metric] = sum(
                    float(self_time[i]) for i, n in enumerate(self.names) if n.split(".")[0] == span
                )
            elif field == "self_s":
                out[metric] = get(self_time, span)
        solves = get(calls, "bifurcation.solve")
        out["bifurcation.solve.accept_ratio"] = (solves - get(failed, "bifurcation.solve")) / solves if solves else 0.0
        # every solve_to_target call of the decks runs under some realize_*
        out["bifurcation.hops_per_realize"] = accepted_solves / outer_realize if outer_realize else 0.0
        out["bifurcation.gn_iterations"] = get(calls, "bifurcation.gn_step")
        for key in ("numerics.svd.gflop_computed", "patterns.basis.mb_computed", "arbitrary.targets", "cli.json_bytes"):
            out[key] = self.counts[key]
        targets = self.counts["arbitrary.targets"]
        out["arbitrary.targets_ok_ratio"] = self.counts["arbitrary.targets_ok"] / targets if targets else 0.0
        out["trace.spans"] = float(len(self.spans))
        for key in out:
            if key not in ("bifurcation.solve.accept_ratio", "bifurcation.hops_per_realize", "arbitrary.targets_ok_ratio"):
                out[key] /= passes
        return out


def _count_svd(tracer, args, kwargs):
    m, n = np.shape(args[0])[-2:]
    tracer.counts["numerics.svd.gflop_computed"] += m * n * min(m, n) / 1e9


def _count_basis(tracer, args, kwargs, basis):
    # sign_tangent_basis builds through cell_basis: count the outer call only
    if tracer._inside(tracer._name_ids["patterns.basis"]):
        return
    if basis.dim:
        n = basis.matrices[0].shape[0]
        tracer.counts["patterns.basis.mb_computed"] += basis.dim * n * n * 8 / 1e6


def _count_json_bytes(tracer, args, kwargs, code):
    # the pipelines ops capture stdout in a StringIO around each cli.main call
    out = sys.stdout
    if isinstance(out, io.StringIO):
        tracer.counts["cli.json_bytes"] += len(out.getvalue().encode())


def _count_certificate(tracer, args, kwargs, cert):
    tracer.counts["arbitrary.targets"] += len(cert.evidence)
    tracer.counts["arbitrary.targets_ok"] += sum(e.ok for e in cert.evidence)
