"""Constructive bifurcation: Gauss-Newton solves of the perturbation maps.

Each strong property comes with a smooth perturbation map whose value at
zero parameters is the base matrix A and whose derivative at zero is
surjective exactly when the property holds:

==================  =====================================  ==================
kind                F(parameters)                          preserves
==================  =====================================  ==================
ssp                 e^-K (A + B) e^K                       spectrum of A + B
smp                 e^-K p(A + B) e^K                      multiplicity list
sap                 (I + L)^T (A + B) (I + L)              inertia
nssp_similar        (I + L)^-1 (A + B) (I + L)             similarity class
nssp_superpattern   (I + L)^-1 A (I + L) + B               similarity class
==================  =====================================  ==================

with B ranging over the closed pattern class, K over skew-symmetric
matrices, L over square matrices with ||L|| < 0.5, and
p(x) = x + sum c_k x^k a degree-(q-1) correction polynomial.
:class:`PerturbationMap` keeps these maps and their Jacobians, one column
per basis direction, as the specification; the solver evaluates neither.

Solving F(parameters) = M for a nearby target M produces A' = A + B'
inside the pattern with the same invariant as M.  The solver works in a
local chart of the group that acts on M (:class:`LocalChart`): it keeps a
group element G and N = G.M, the matrix similar or congruent to M that
A + B must equal, and clears the entries of N on the cells that B cannot
reach (the non-edges of the graph, the zero cells of the pattern) by
minimum-norm Gauss-Newton steps in the Lie algebra; the first step of
each solve is minimum-norm jointly with B, as the map's own step would
be.  Each step matrix is the verifier's eliminated dual block at N, so it
has full row rank at the base exactly when the property holds.  The
strong property persists for small steps; every solve re-verifies it
rather than assuming.

Every realizer is a plan for one continuation driver, :func:`_homotopy`,
or one call of such a realizer (:func:`realize_q` plans the whole
refinement first, :func:`realize_rank` is an inertia target): the plan
names the next target within a trust radius of the current matrix, the
driver solves for it, re-bases the map on the realized matrix
(:meth:`PerturbationMap.rebased`) and halves the radius when a solve
fails, within MAX_TRUST_HALVINGS halvings and MAX_HOMOTOPY_HOPS hops.
The plans walk in the invariant the map controls: the symmetric
realizers move every eigenvalue that has to move along Q diag Q^T in the
same hop, and :func:`realize_similar` moves the diagonal blocks of the
current real Schur form Q T Q^T toward the target's eigenvalues.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import (
    InputError,
    NoConvergence,
    NotARefinement,
    NotASuperpattern,
    NotInClass,
    PatternViolation,
    PropertyNotPreserved,
    SurjectivityFailure,
    TargetError,
    UnreachableInertia,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    char_poly,
    fro,
    RealSchurForm,
    lstsq_min_norm,
    rank,  # not called here; bench/spans.py traces bifurcation.rank
    real_schur,
    require_square,
    sym_eig,
    symmetrize,
)
from .patterns import (
    Graph,
    OrderedMultiplicityList,
    SignPattern,
    cluster_eigenvalues,
    eig_zero_threshold,
    graph_closure_basis,
    is_superpattern,
    marginal_cells,
    matrix_in_graph_class,
    matrix_in_sign_class,
    ordered_multiplicity_list,
    pin,
    refinement_blocks,
    sign_tangent_basis,
    skew_basis,
    full_basis,
)
from .verifiers import (
    SQRT2,
    StrongPropertyReport,
    _dense,
    _kronecker_entries,
    _non_edges,
    verify_nssp,
    verify_sap,
    verify_smp,
    verify_ssp,
)

MAX_TRUST_HALVINGS = 20
MAX_HOMOTOPY_HOPS = 500
#: Every Gauss-Newton step keeps its Lie-algebra part (K' or L') at or
#: below this Frobenius norm, safely inside the ||L|| < 0.5 region where
#: I + L stays invertible.
L_NORM_CAP = 0.45

_SYMMETRIC_KINDS = ("ssp", "smp", "sap")
_NSSP_KINDS = ("nssp_similar", "nssp_superpattern")
MAP_KINDS = _SYMMETRIC_KINDS + _NSSP_KINDS


def default_trust_radius(a) -> float:
    """Initial step bound 0.1 * (1 + ||A||_F) for targets reached in one solve."""
    return 0.1 * (1.0 + fro(np.asarray(a, dtype=float)))


def _trust_radius(a, trust_radius) -> float:
    """:func:`default_trust_radius` of A when ``trust_radius`` is None, else
    ``trust_radius``, which must be a finite positive number."""
    radius = default_trust_radius(a) if trust_radius is None else float(trust_radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise InputError("trust radius must be finite and positive")
    return radius


@dataclass(eq=False)
class PerturbationMap:
    """One of the five perturbation maps: the kind, base and pattern that
    a solve works from, and the map itself as the specification.

    :meth:`evaluate` is F and :meth:`jacobian` its derivative, at a flat
    parameter vector [b-coefficients | K/L-coefficients | polynomial
    coefficients (smp only)] against orthonormal bases of the pattern
    space and the skew/full matrix space, built on first use.
    """

    kind: str
    base: np.ndarray
    graph: Graph | None = None
    pattern: SignPattern | None = None
    q: int | None = None
    super_pattern: SignPattern | None = None

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise InputError(f"unknown map kind {self.kind!r}")
        self.base = as_matrix(self.base, "base matrix")
        self.n = require_square(self.base, "base matrix")
        if self.kind in _SYMMETRIC_KINDS:
            if self.graph is None:
                raise InputError(f"{self.kind} map needs a graph")
            self.ambient_dim = self.n * (self.n + 1) // 2
        else:
            if self.pattern is None:
                raise InputError(f"{self.kind} map needs a sign pattern")
            self.ambient_dim = self.n * self.n
        self._c_dim = self.q if self.kind == "smp" else 0
        if self.kind == "smp" and (self.q is None or self.q < 1):
            raise InputError("smp map needs q >= 1")

    # -- parameter bookkeeping ------------------------------------------
    # Only the specification (evaluate, jacobian) reads the bases; the
    # solver (:class:`LocalChart`) never does.

    @functools.cached_property
    def _b_basis(self):
        if self.kind in _SYMMETRIC_KINDS:
            return graph_closure_basis(self.graph)
        return sign_tangent_basis(self.pattern)

    @functools.cached_property
    def _second_basis(self):
        return skew_basis(self.n) if self.kind in ("ssp", "smp") else full_basis(self.n)

    @property
    def param_dim(self) -> int:
        return self._b_basis.dim + self._second_basis.dim + self._c_dim

    def zero_params(self) -> np.ndarray:
        return np.zeros(self.param_dim)

    def _unpack(self, params: np.ndarray):
        params = np.asarray(params, dtype=float).reshape(-1)
        if params.shape[0] != self.param_dim:
            raise InputError(
                f"expected {self.param_dim} parameters, got {params.shape[0]}"
            )
        nb = self._b_basis.dim
        ns = self._second_basis.dim
        return params[:nb], params[nb : nb + ns], params[nb + ns :]

    def b_matrix(self, params) -> np.ndarray:
        return self._b_basis.combine(self._unpack(params)[0])

    def second_matrix(self, params) -> np.ndarray:
        return self._second_basis.combine(self._unpack(params)[1])

    # -- evaluation ------------------------------------------------------

    def _poly_apply(self, m: np.ndarray, c: np.ndarray) -> np.ndarray:
        out = m.copy()
        power = np.eye(self.n)
        for k in range(self._c_dim):
            out = out + c[k] * power
            power = power @ m
        return out

    def evaluate(self, params) -> np.ndarray:
        b, s, c = self._unpack(params)
        bm = self._b_basis.combine(b)
        sm = self._second_basis.combine(s)
        if self.kind in ("ssp", "smp"):
            mid = self.base + bm
            if self.kind == "smp":
                mid = self._poly_apply(mid, c)
            e_pos = scipy.linalg.expm(sm)
            e_neg = scipy.linalg.expm(-sm)
            return e_neg @ mid @ e_pos
        if self.kind == "sap":
            s_mat = np.eye(self.n) + sm
            return s_mat.T @ (self.base + bm) @ s_mat
        # nssp kinds need I + L invertible
        if np.linalg.norm(sm) >= 0.5:
            raise InputError("||L|| must stay below 0.5 so that I + L is invertible")
        s_mat = np.eye(self.n) + sm
        if self.kind == "nssp_similar":
            return np.linalg.solve(s_mat, (self.base + bm) @ s_mat)
        return np.linalg.solve(s_mat, self.base @ s_mat) + bm

    # -- analytic Jacobian ------------------------------------------------

    def jacobian(self, params) -> np.ndarray:
        """Directional derivatives along every basis direction, one column
        per direction, stacked as an (n^2 x param_dim) matrix.  Analytic at
        every parameter value.

        For ssp/smp, with mid = A + B (or p(A + B)), a pattern direction E
        gives e^-K D(E) e^K with D(E) the derivative of mid along E, a skew
        direction E gives L(-K, -E) mid e^K + e^-K mid L(K, E), where L is
        the Frechet derivative of the exponential
        (``scipy.linalg.expm_frechet``; Al-Mohy and Higham, 2009), and a
        polynomial coefficient c_k gives e^-K (A + B)^k e^K.  At zero
        parameters the columns are exactly E, mid E - E mid and the powers
        of A + B.  The sap and nSSP columns follow by the product rule.
        """
        b, s, c = self._unpack(params)
        bm = self._b_basis.combine(b)
        sm = self._second_basis.combine(s)
        cols: list[np.ndarray] = []
        if self.kind in ("ssp", "smp"):
            m = self.base + bm
            powers = [np.eye(self.n)]
            for _ in range(self._c_dim - 1):
                powers.append(powers[-1] @ m)
            mid = self._poly_apply(m, c)
            e_pos = scipy.linalg.expm(sm)
            e_neg = scipy.linalg.expm(-sm)
            for direction in self._b_basis.matrices:
                inner = direction
                for k in range(1, self._c_dim):
                    # derivative of p(A + B) along the pattern direction
                    if c[k] != 0.0:
                        term = sum(powers[j] @ direction @ powers[k - 1 - j] for j in range(k))
                        inner = inner + c[k] * term
                cols.append(e_neg @ inner @ e_pos)
            for direction in self._second_basis.matrices:
                _, d_pos = scipy.linalg.expm_frechet(sm, direction)
                _, d_neg = scipy.linalg.expm_frechet(-sm, -direction)
                cols.append(d_neg @ mid @ e_pos + e_neg @ mid @ d_pos)
            cols.extend(e_neg @ power @ e_pos for power in powers[: self._c_dim])
        elif self.kind == "sap":
            m = self.base + bm
            s_mat = np.eye(self.n) + sm
            for direction in self._b_basis.matrices:
                cols.append(s_mat.T @ direction @ s_mat)
            for direction in self._second_basis.matrices:
                cols.append(direction.T @ m @ s_mat + s_mat.T @ m @ direction)
        else:
            s_mat = np.eye(self.n) + sm
            s_inv = np.linalg.inv(s_mat)
            if self.kind == "nssp_similar":
                m = self.base + bm
                cols.extend(s_inv @ direction @ s_mat for direction in self._b_basis.matrices)
            else:
                m = self.base
                cols.extend(self._b_basis.matrices)
            f0 = s_inv @ m @ s_mat
            for direction in self._second_basis.matrices:
                cols.append(-s_inv @ direction @ f0 + s_inv @ m @ direction)
        return np.column_stack([col.reshape(-1) for col in cols])

    # -- class checks ------------------------------------------------------

    def check_pattern(self):
        return self.super_pattern if self.kind == "nssp_superpattern" else self.pattern

    def required_nonzero(self) -> list[tuple[int, int]]:
        if self.kind in _SYMMETRIC_KINDS:
            return [(i, j) for i, j in self.graph.edges]
        return self.check_pattern().nonzero_cells()

    def recheck(self, a: np.ndarray, tol: Tolerances) -> StrongPropertyReport:
        """Report of the property at ``a`` in the class it must lie in; the
        verifier's class check raises :class:`NotInClass` outside it."""
        if self.kind == "ssp":
            return verify_ssp(a, self.graph, tol)
        if self.kind == "smp":
            return verify_smp(a, self.graph, tol)
        if self.kind == "sap":
            return verify_sap(a, self.graph, tol)
        return verify_nssp(a, tol, pattern=self.check_pattern())

    def rebased(self, base: np.ndarray) -> PerturbationMap:
        """The same map at a new base, sharing whichever bases are built.
        No class check: the caller passes a matrix that a solve's
        :meth:`recheck` has just accepted (a realized matrix, which
        :meth:`LocalChart.realized` made exactly symmetric for the symmetric
        kinds)."""
        moved = copy.copy(self)
        moved.base = base
        return moved

    def verify_base(self, tol: Tolerances) -> StrongPropertyReport:
        """Report of the property that holds at the base exactly when J(0)
        is onto; the superpattern map perturbs within the base's pattern."""
        if self.kind == "nssp_superpattern":
            return verify_nssp(self.base, tol, pattern=self.pattern)
        return self.recheck(self.base, tol)


def ssp_map(a, g: Graph) -> PerturbationMap:
    a = symmetrize(a)
    if not matrix_in_graph_class(a, g):
        raise InputError("base matrix is not in the class of the given graph")
    return PerturbationMap(kind="ssp", base=a, graph=g)


def smp_map(a, g: Graph, tol: Tolerances = DEFAULT_TOL) -> PerturbationMap:
    a = symmetrize(a)
    if not matrix_in_graph_class(a, g, tol):
        raise InputError("base matrix is not in the class of the given graph")
    q = len(cluster_eigenvalues(sym_eig(a, tol).eigenvalues, tol))
    return PerturbationMap(kind="smp", base=a, graph=g, q=q)


def sap_map(a, g: Graph) -> PerturbationMap:
    a = symmetrize(a)
    if not matrix_in_graph_class(a, g):
        raise InputError("base matrix is not in the class of the given graph")
    return PerturbationMap(kind="sap", base=a, graph=g)


def similarity_map(a, p: SignPattern) -> PerturbationMap:
    a = as_matrix(a)
    if not matrix_in_sign_class(a, p):
        raise InputError("base matrix is not in the class of the given sign pattern")
    return PerturbationMap(kind="nssp_similar", base=a, pattern=p)


def superpattern_map(a, p: SignPattern, p_super: SignPattern) -> PerturbationMap:
    a = as_matrix(a)
    if not matrix_in_sign_class(a, p):
        raise InputError("base matrix is not in the class of the given sign pattern")
    if not is_superpattern(p_super, p):
        raise NotASuperpattern("second pattern is not a superpattern of the first")
    return PerturbationMap(
        kind="nssp_superpattern", base=a, pattern=p, super_pattern=p_super
    )


# ---------------------------------------------------------------------------
# Local charts


def _cayley_minus_identity(k: np.ndarray) -> np.ndarray:
    """cay(K) - I = (I - K/2)^-1 K, where cay(K) = (I - K/2)^-1 (I + K/2) is
    orthogonal for skew K and has derivative K at 0."""
    return np.linalg.solve(np.eye(k.shape[0]) - k / 2.0, k)


class LocalChart:
    """Gauss-Newton state of one solve of F(parameters) = M, in a local
    chart of the group acting on M.

    The state is a group element G and the matrix N it carries M to:

    =================  =================  ===============================
    kind               N                  step G <- ...
    =================  =================  ===============================
    ssp                U M U^T            cay(K') U
    smp                U M(c) U^T         cay(K') U, c <- c + c'
    sap                T^T M T            T (I + L')
    nssp_similar       S M S^-1           (I + L') S
    nssp_superpattern  S^-1 A S           S (I + L')
    =================  =================  ===============================

    with U orthogonal, K' skew, cay the Cayley transform and M(c) =
    sum_j c_j P_j the target with its eigenvalue clusters (spectral
    projectors P_j) moved to the values c, which start at the cluster
    centers.  G is held as its displacement G - I, and N is formed as M
    (A for the superpattern map) plus a correction computed from it, so
    that N is similar to M up to about one rounding of M.

    F = M holds exactly when A + B = N (for the superpattern map, when
    A' = M - B is similar to A through N).  B covers ``free``, the
    diagonal and the upper edges or the support cells, so the equations
    are left on ``cells``: N = 0 on the strictly upper non-edges of the
    graph or on the zero cells of the pattern, where the superpattern map
    asks N = M instead.  On ``cells``, :meth:`step_matrix` is the
    verifier's eliminated dual block at N (SSP: [K', N] over the skew
    pairs E_ij - E_ji, i < j; SAP: N L' + L'^T N; nSSP: the commutator
    over all n^2 cells), plus one column U P_j U^T per target cluster for
    the SMP.  The block comes from the verifiers' one assembler of the
    dual, :func:`verifiers._kronecker_entries`, at -N or N.
    """

    def __init__(self, f: PerturbationMap, m, tol: Tolerances = DEFAULT_TOL):
        self.f = f
        self.target = as_matrix(m, "target matrix")
        n = f.n
        every = np.divmod(np.arange(n * n), n)
        if f.kind in _SYMMETRIC_KINDS:
            self.cells = _non_edges(f.graph)
            self._columns = np.triu_indices(n, 1) if f.kind != "sap" else every
        else:
            self.cells = np.nonzero(f.pattern.as_array() == 0)
            self._columns = every
        free = np.ones((n, n), dtype=bool)
        free[self.cells] = False
        self.free = np.nonzero(np.triu(free) if f.kind in _SYMMETRIC_KINDS else free)
        values = np.zeros(0)
        if f.kind == "smp":
            dec = sym_eig(self.target, tol)
            clusters = cluster_eigenvalues(dec.eigenvalues, tol)
            self._frame = dec.eigenvectors
            self._sizes = np.array([mult for _, mult in clusters])
            values = np.array([center for center, _ in clusters])
        self._place(np.zeros((n, n)), values)

    def _place(self, displacement: np.ndarray, values: np.ndarray) -> None:
        self.displacement, self.values = displacement, values
        kind, d, m = self.f.kind, displacement, self.target
        if kind == "smp":
            m = (self._frame * np.repeat(values, self._sizes)) @ self._frame.T
        if kind in ("ssp", "smp"):
            # (I + D) M (I + D)^T
            dm = d @ m
            point = m + (dm + dm.T + dm @ d.T)
        elif kind == "sap":
            # (I + D)^T M (I + D)
            md = m @ d
            point = m + (md + md.T + d.T @ md)
        elif kind == "nssp_similar":
            # (I + D) M (I + D)^-1 = M + (D M - M D) (I + D)^-1
            group = np.eye(self.f.n) + d
            point = m + np.linalg.solve(group.T, (d @ m - m @ d).T).T
        else:
            # (I + D)^-1 A (I + D) = A + (I + D)^-1 (A D - D A)
            a = self.f.base
            point = a + np.linalg.solve(np.eye(self.f.n) + d, a @ d - d @ a)
        if kind in _SYMMETRIC_KINDS:
            point = (point + point.T) / 2.0
        self.point = point

    def residual(self) -> np.ndarray:
        """Equation residuals on ``cells``."""
        out = self.point[self.cells]
        if self.f.kind == "nssp_superpattern":
            out = out - self.target[self.cells]
        return out

    def residual_norm(self) -> float:
        """||A' - N||_F for the realized matrix A' (:meth:`realized`)."""
        scale = SQRT2 if self.f.kind in _SYMMETRIC_KINDS else 1.0
        return scale * float(np.linalg.norm(self.residual()))

    def step_matrix(self, cells=None) -> np.ndarray:
        """Derivative of N on ``cells`` (default: the equation cells, that
        of :meth:`residual`) along the step coordinates: K' over the
        strictly upper pairs (ssp, smp) or L' over all cells in row-major
        order, then c' (smp)."""
        cells = self.cells if cells is None else cells
        kind = self.f.kind
        point = self.point if kind in ("sap", "nssp_superpattern") else -self.point
        prop = "nssp" if kind.startswith("nssp") else kind
        shape = (len(cells[0]), len(self._columns[0]))
        jac = _dense(_kronecker_entries(point, cells, prop), shape)
        if kind == "smp":
            w = self._frame + self.displacement @ self._frame
            products = w[cells[0]] * w[cells[1]]
            starts = np.cumsum(self._sizes) - self._sizes
            jac = np.hstack([jac, np.add.reduceat(products, starts, axis=1)])
        return jac

    def lie_step(self, step) -> np.ndarray:
        """The step's K' or L' as an n x n matrix."""
        n = self.f.n
        out = np.zeros((n, n))
        out[self._columns] = step[: len(self._columns[0])]
        if self.f.kind in ("ssp", "smp"):
            out = out - out.T
        return out

    def moved(self, step) -> LocalChart:
        """The chart after a step, retracted onto the group."""
        step = np.asarray(step, dtype=float)
        lie, kind, d = self.lie_step(step), self.f.kind, self.displacement
        group = np.eye(self.f.n) + d
        if kind in ("ssp", "smp"):
            moved = d + _cayley_minus_identity(lie) @ group
        elif kind == "nssp_similar":
            moved = d + lie @ group
        else:
            moved = d + group @ lie
        out = copy.copy(self)
        # the cluster values follow K' in the step (smp only)
        out._place(moved, self.values + step[len(self._columns[0]) :])
        return out

    def realized(self) -> np.ndarray:
        """N with the residuals on ``cells`` cleared: zeros there, or the
        target's entries for the superpattern map."""
        out = self.point.copy()
        if self.f.kind == "nssp_superpattern":
            out[self.cells] = self.target[self.cells]
        else:
            out[self.cells] = 0.0
        if self.f.kind in _SYMMETRIC_KINDS:
            out[self.cells[::-1]] = 0.0
        return out


# ---------------------------------------------------------------------------
# Results


@dataclass(eq=False)
class RealizationResult:
    """A realized matrix plus everything needed to audit it.

    ``matrix`` lies in the required pattern class, ``final_residual`` is
    at most newton_tol, and ``property_report`` re-verifies the strong
    property at the realized matrix (results violating any of these are
    never constructed; the solve raises instead).  ``marginal_entries``
    lists required-nonzero cells within 10x of the zero threshold.
    """

    matrix: np.ndarray
    target_kind: str
    target: object
    achieved: object
    iterations: int
    final_residual: float
    residual_trace: tuple[float, ...]
    pattern_ok: bool
    property_report: StrongPropertyReport | None
    marginal_entries: tuple[tuple[int, int], ...] = field(default=())

    def as_dict(self) -> dict:
        def plain(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, OrderedMultiplicityList):
                return list(v.entries)
            if isinstance(v, (tuple, list)):
                return [plain(x) for x in v]
            if isinstance(v, (np.integer,)):
                return int(v)
            if isinstance(v, (np.floating,)):
                return float(v)
            return v

        return {
            "matrix": self.matrix.tolist(),
            "target_kind": self.target_kind,
            "target": plain(self.target),
            "achieved": plain(self.achieved),
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "residual_trace": list(self.residual_trace),
            "pattern_ok": self.pattern_ok,
            "property_recheck": (
                None if self.property_report is None else self.property_report.as_dict()
            ),
            "marginal_entries": [list(c) for c in self.marginal_entries],
        }


def _result(
    required_nonzero,
    a_prime: np.ndarray,
    target_kind: str,
    target,
    achieved,
    iterations: int,
    final_residual: float,
    trace,
    report,
) -> RealizationResult:
    return RealizationResult(
        matrix=a_prime,
        target_kind=target_kind,
        target=target,
        achieved=achieved,
        iterations=iterations,
        final_residual=final_residual,
        residual_trace=tuple(trace),
        pattern_ok=True,
        property_report=report,
        marginal_entries=tuple(marginal_cells(a_prime, required_nonzero)),
    )


# ---------------------------------------------------------------------------
# Core solver


def solve_to_target(
    f: PerturbationMap,
    m_target,
    tol: Tolerances = DEFAULT_TOL,
    base_report: StrongPropertyReport | None = None,
) -> RealizationResult:
    """Solve F(parameters) = M_target by minimum-norm Gauss-Newton steps in
    a local chart (:class:`LocalChart`).

    The derivative at zero must be surjective (else
    :class:`SurjectivityFailure`).  That is the map's strong property at
    its base, so the verifier decides it: ``base_report`` is the report of
    that property for ``f.base``, which the caller vouches for; without
    one, the base is verified here.  A target within newton_tol of the base
    returns the base itself, with 0 iterations and ``base_report``.
    Otherwise each step solves the chart's step matrix for the residuals
    by minimum norm (the first jointly with B, :func:`_opening_step`), with
    its Lie-algebra part capped at ``L_NORM_CAP``; ``residual_trace`` and
    ``final_residual`` are ||A' - N||_F, the distance from the realized
    matrix A' to the matrix N that is exactly similar (congruent for the
    SAP) to M_target.  The realizers' driver (:func:`_homotopy`) keeps
    ||M_target - A|| within a trust radius, retrying with a shorter step on
    :class:`NoConvergence` or :class:`PatternViolation`.  On success the
    realized matrix is re-verified (:meth:`PerturbationMap.recheck`), and
    that verification's class check is the solve's: a matrix outside the
    class raises :class:`PatternViolation`.
    """
    m = as_matrix(m_target, "target matrix")
    if m.shape != f.base.shape:
        raise InputError(
            f"target shape {m.shape} does not match base shape {f.base.shape}"
        )
    prop = "nssp" if f.kind in _NSSP_KINDS else f.kind
    base_report = _checked_base(base_report, prop, lambda: f.verify_base(tol))
    distance = fro(m - f.base)
    at_base = distance <= tol.newton_tol
    if at_base:
        a_prime, iterations, trace = f.base.copy(), 0, [distance]
    else:
        a_prime, iterations, trace = _chart_solve(LocalChart(f, m, tol), tol)
    if at_base and f.kind != "nssp_superpattern":
        report = base_report
    else:
        try:
            report = f.recheck(a_prime, tol)
        except NotInClass as exc:
            raise PatternViolation(
                "realized matrix left the pattern class; the target step was too large"
            ) from exc
        if not report.holds:
            raise PropertyNotPreserved(
                "realized matrix lost the strong property; the target step was "
                "too large"
            )
    return _result(
        f.required_nonzero(), a_prime, "matrix", m, a_prime,
        iterations, trace[-1], trace, report,
    )


def _checked_base(report, prop: str, verify) -> StrongPropertyReport:
    """The report of the property ``prop`` at a base: the caller's, which
    must be for ``prop``, or ``verify()`` when there is none.  Every solve
    needs the property at its base, so a report in which it fails raises
    :class:`SurjectivityFailure`."""
    name = "nSSP" if prop == "nssp" else prop.upper()
    if report is None:
        report = verify()
    elif report.property_name != prop:
        raise InputError(
            f"base report is for the {report.property_name.upper()}, not the {name}"
        )
    if not report.holds:
        raise SurjectivityFailure(f"base matrix does not have the {name}")
    return report


def _opening_step(chart: LocalChart, tol: Tolerances) -> np.ndarray:
    """First step of a solve, minimum-norm jointly in the Lie-algebra step
    and in B on the free cells, as a Gauss-Newton step of the map itself
    would be: it trades the target's displacement between the pattern and
    the group so that the realized matrix stays near the base."""
    equations, free = chart.step_matrix(), chart.step_matrix(chart.free)
    k = free.shape[0]
    system = np.block(
        [[equations, np.zeros((equations.shape[0], k))], [free, -np.eye(k)]]
    )
    reference = chart.target if chart.f.kind == "nssp_superpattern" else chart.f.base
    rhs = np.concatenate([chart.residual(), (chart.point - reference)[chart.free]])
    return lstsq_min_norm(system, -rhs, tol)[: equations.shape[1]]


def _chart_solve(chart: LocalChart, tol: Tolerances):
    """Gauss-Newton iterations on the chart: (realized matrix, iterations,
    residual trace)."""
    trace: list[float] = []
    for it in range(tol.max_iter + 1):
        trace.append(chart.residual_norm())
        if trace[-1] <= tol.newton_tol:
            return chart.realized(), it, trace
        if it == tol.max_iter:
            break
        if it == 0:
            step = _opening_step(chart, tol)
        else:
            step = lstsq_min_norm(chart.step_matrix(), -chart.residual(), tol)
        size = fro(chart.lie_step(step))
        if size > L_NORM_CAP:
            step = step * (L_NORM_CAP / size)
        chart = chart.moved(step)
    best = min(trace)
    raise NoConvergence(
        f"no convergence after {tol.max_iter} Gauss-Newton iterations "
        f"(best residual {best:.3e})",
        best_residual=best,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Realizers built on the solver


def _homotopy(
    f: PerturbationMap,
    report: StrongPropertyReport | None,
    trust: float,
    plan,
    tol: Tolerances,
    what: str,
    progress=None,
    hops: int = MAX_HOMOTOPY_HOPS,
) -> RealizationResult:
    """Continuation from ``f.base`` through the hops that ``plan`` lays out,
    with the step size controlled by halving (Allgower and Georg, Numerical
    Continuation Methods, 1990).

    ``plan(cur, trust)`` returns ``(M, last)``: the next target M, at most
    ``trust`` from the current matrix ``cur``, and whether reaching it ends
    the walk; or ``None`` once ``cur`` is the goal.  Each hop is one
    :func:`solve_to_target` from ``cur``, vouched for by ``report``; an
    accepted hop that is not the last re-bases ``f`` on the realized matrix.
    ``trust`` halves when a solve raises :class:`NoConvergence` or
    :class:`PatternViolation` (when the plan returns the failed target
    again, the halving is counted without a second solve), and when
    ``progress(new, trust)`` judges that an accepted hop moved too little
    (the hop is still kept).  The halving past the MAX_TRUST_HALVINGS-th,
    or a round past hops + MAX_TRUST_HALVINGS, raises
    :class:`NoConvergence` naming ``what``.  Returns the last accepted
    hop's result with ``iterations`` and ``residual_trace`` summed over the
    accepted hops, or the base with 0 iterations when the plan ends first.
    """
    cur, halvings, iterations, trace, res = f.base, 0, 0, [], None

    def halve(reason: str, cause=None) -> None:
        nonlocal trust, halvings
        halvings += 1
        trust /= 2.0
        if halvings > MAX_TRUST_HALVINGS:
            raise NoConvergence(f"{what} {reason}") from cause

    failed = None  # (target bytes, error) of this round's solve, if it failed
    for _round in range(hops + MAX_TRUST_HALVINGS):
        step = plan(cur, trust)
        if step is None:
            break
        m, last = step
        key = m.tobytes()
        # the solve is deterministic: a target that has just failed from cur
        # fails again, so only the halving is counted
        if failed is None or failed[0] != key:
            try:
                res = solve_to_target(f, m, tol, base_report=report)
                failed = None
            except (NoConvergence, PatternViolation) as exc:
                failed = (key, exc)
        if failed is not None:
            halve(f"failed after {MAX_TRUST_HALVINGS} trust-radius halvings", failed[1])
            continue
        iterations += res.iterations
        trace.extend(res.residual_trace)
        if last:
            break
        if progress is not None and not progress(res.matrix, trust):
            halve("stalled")
        cur, report = res.matrix, res.property_report
        f = f.rebased(cur)
    else:
        raise NoConvergence(f"{what} did not terminate")
    if res is None:
        return _result(f.required_nonzero(), cur, "matrix", cur, cur, 0, 0.0, (0.0,), report)
    return replace(res, iterations=iterations, residual_trace=tuple(trace))


def _with_spectrum(vectors: np.ndarray, values) -> np.ndarray:
    """The symmetric matrix Q diag(values) Q^T."""
    m = vectors @ np.diag(values) @ vectors.T
    return (m + m.T) / 2.0


def realize_spectrum(
    a,
    g: Graph,
    target,
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
    base_report: StrongPropertyReport | None = None,
) -> RealizationResult:
    """Matrix in the graph class with the given spectrum, near A.

    Requires the SSP at A: ``base_report`` is the caller's SSP report for
    A (a report for another property is refused); without one, A is
    verified here.  Each hop moves the eigenvalues of the current matrix
    Q diag Q^T straight toward the target by at most the trust radius and
    solves for the result (:func:`_homotopy`), so the walk re-bases on each
    realized intermediate matrix (the property persists at every step, so
    each hop starts from a verified base).
    """
    a = symmetrize(a)
    target = np.sort(np.asarray(target, dtype=float).reshape(-1))
    if target.shape[0] != g.n:
        raise InputError(f"target spectrum must have {g.n} values")
    if not np.all(np.isfinite(target)):
        raise InputError("target spectrum contains non-finite values")
    trust = _trust_radius(a, trust_radius)
    base_report = _checked_base(base_report, "ssp", lambda: verify_ssp(a, g, tol))

    def plan(cur, trust):
        dec = sym_eig(cur, tol)
        with np.errstate(over="ignore"):  # an overflow is refused below
            delta = target - dec.eigenvalues
            dist = float(np.linalg.norm(delta))
        if not math.isfinite(dist):
            raise InputError("distance to the target spectrum overflows")
        last = dist <= trust
        waypoint = target if last else dec.eigenvalues + (trust / dist) * delta
        return _with_spectrum(dec.eigenvectors, waypoint), last

    res = _homotopy(ssp_map(a, g), base_report, trust, plan, tol, "spectrum homotopy")
    achieved = sym_eig(res.matrix, tol).eigenvalues
    return replace(
        res, target_kind="spectrum", target=tuple(float(v) for v in target),
        achieved=tuple(float(v) for v in achieved),
    )


def _split_values(clusters, blocks, delta: float) -> np.ndarray:
    """Target spectrum splitting each cluster into its refinement block,
    sub-values spread over a width-``delta`` window around the center."""
    values: list[float] = []
    for (center, _mult), block in zip(clusters, blocks):
        b = len(block)
        if b == 1:
            values.extend([center] * block[0])
            continue
        for j, mult in enumerate(block):
            offset = delta * (j / (b - 1) - 0.5)
            values.extend([center + offset] * mult)
    return np.asarray(values)


def _min_cluster_gap(clusters) -> float:
    centers = [c for c, _ in clusters]
    if len(centers) < 2:
        return math.inf
    return min(centers[i + 1] - centers[i] for i in range(len(centers) - 1))


def realize_multiplicity_list(
    a,
    g: Graph,
    target,
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
    base_report: StrongPropertyReport | None = None,
) -> RealizationResult:
    """Matrix in the graph class whose ordered multiplicity list is the
    given refinement of the base matrix's list, realized through the SMP
    map.

    Requires the SMP at A: ``base_report`` is the caller's SMP report for
    A (a report for another property is refused); without one, A is
    verified here.  The base is rescaled to unit Frobenius norm for the
    solve (the SMP chart's cluster-value columns are O(1), while its group
    columns scale with A, so a small base would let the former outweigh
    the latter) and scaled back afterwards; scaling is an exact
    similarity-respecting transformation.  ``trust_radius`` is in A's
    units, as for :func:`realize_spectrum`, and is rescaled with the base.
    The split is one hop whose width halves until it is solved with the
    SMP, which the hop verifies at unit norm (the report returned: the SMP
    does not change under scaling).  The achieved list is post-checked
    against the target rather than assumed.
    """
    a = symmetrize(a)
    if a.shape[0] != g.n:
        raise InputError(f"matrix size {a.shape[0]} does not match graph on {g.n} vertices")
    target = OrderedMultiplicityList(entries=tuple(int(m) for m in target))
    if target.total != g.n:
        raise InputError(f"multiplicity list must sum to {g.n}")
    scale = fro(a) or 1.0
    w = a / scale
    trust = _trust_radius(w, None if trust_radius is None else float(trust_radius) / scale)
    base_report = _checked_base(base_report, "smp", lambda: verify_smp(a, g, tol))

    dec = sym_eig(w, tol)
    clusters = cluster_eigenvalues(dec.eigenvalues, tol)
    m_base = OrderedMultiplicityList(entries=tuple(m for _, m in clusters))
    blocks = refinement_blocks(target, m_base)
    if blocks is None:
        raise NotARefinement(
            f"{tuple(target)} is not a refinement of the base list {tuple(m_base)}"
        )
    if tuple(target) == tuple(m_base):
        return _result(
            g.edges, a, "multiplicity_list",
            tuple(target), tuple(m_base), 0, 0.0, (0.0,), base_report,
        )

    def plan(_cur, delta):
        return _with_spectrum(dec.eigenvectors, _split_values(clusters, blocks, delta)), True

    # the SMP of the scaled base is the SMP of A, and the hop's report at
    # unit norm that of the scaled-back result; the realized list is read at
    # unit norm, as the base's
    res = _homotopy(
        smp_map(w, g, tol), base_report, min(0.25 * _min_cluster_gap(clusters), trust),
        plan, tol, "multiplicity split",
    )
    achieved = ordered_multiplicity_list(sym_eig(res.matrix, tol).eigenvalues, tol)
    if tuple(achieved) != tuple(target):
        raise NoConvergence(
            f"achieved multiplicity list {tuple(achieved)} differs from the "
            f"target {tuple(target)}"
        )
    a_prime = scale * res.matrix
    return replace(
        res, matrix=a_prime, target_kind="multiplicity_list", target=tuple(target),
        achieved=tuple(achieved), marginal_entries=tuple(marginal_cells(a_prime, g.edges)),
    )


def realize_inertia(
    a,
    g: Graph,
    target: tuple[int, int],
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
) -> RealizationResult:
    """Matrix in the graph class with the given partial inertia, near A.

    Requires the SAP at A, which reaches every nearby inertia at once (the
    bifurcation lemma), so one hop of :func:`_homotopy` moves every zero
    eigenvalue of Q diag Q^T that has to move: the lowest to -delta, the
    next to +delta, with delta = 0.5 * trust / sqrt(k) for k zeros moved,
    so the hop is half the trust radius long.  The trust radius is
    ``trust_radius`` or :func:`default_trust_radius` of A and halves each
    time the solve fails; the walk ends at a realized matrix with the
    target inertia.
    """
    a = symmetrize(a)
    if a.shape[0] != g.n:
        raise InputError(f"matrix size {a.shape[0]} does not match graph on {g.n} vertices")
    p_target, q_target = int(target[0]), int(target[1])
    if p_target < 0 or q_target < 0 or p_target + q_target > g.n:
        raise UnreachableInertia(
            f"inertia ({p_target}, {q_target}) is not feasible for n = {g.n}"
        )
    trust = _trust_radius(a, trust_radius)
    base_report = _checked_base(None, "sap", lambda: verify_sap(a, g, tol))

    def plan(cur, trust):
        dec = sym_eig(cur, tol)
        lam = dec.eigenvalues
        zero_thr = eig_zero_threshold(cur, tol)
        p_cur, q_cur = int(np.sum(lam > zero_thr)), int(np.sum(lam < -zero_thr))
        if (p_cur, q_cur) == (p_target, q_target):
            return None
        zero_idx = np.flatnonzero(np.abs(lam) <= zero_thr)
        up, down = p_target - p_cur, q_target - q_cur
        if min(up, down) < 0 or up + down > len(zero_idx):
            raise UnreachableInertia(
                f"the partial inertia ({p_cur}, {q_cur}) cannot reach "
                f"({p_target}, {q_target}): only zero eigenvalues move"
            )
        k = up + down
        new_lam = lam.copy()
        new_lam[zero_idx[:k]] = np.repeat([-1.0, 1.0], [down, up]) * (0.5 * trust / math.sqrt(k))
        return _with_spectrum(dec.eigenvectors, new_lam), False

    res = _homotopy(sap_map(a, g), base_report, trust, plan, tol, "inertia walk", hops=4 * g.n)
    # the plan ends the walk only at the target inertia
    target = (p_target, q_target)
    return replace(res, target_kind="inertia", target=target, achieved=target)


def realize_rank(
    a,
    g: Graph,
    target_rank: int,
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
) -> RealizationResult:
    """Matrix in the graph class with the given rank: the
    :func:`realize_inertia` target that moves zero eigenvalues to positive
    values only."""
    a = symmetrize(a)
    target_rank = int(target_rank)
    p0, q0 = pin(a, tol)
    r = p0 + q0
    if not r <= target_rank <= g.n:
        raise TargetError(
            f"target rank {target_rank} must lie between rank(A) = {r} and n = {g.n}"
        )
    res = realize_inertia(a, g, (p0 + (target_rank - r), q0), tol, trust_radius)
    p, q = res.achieved
    return replace(res, target_kind="rank", target=target_rank, achieved=p + q)


def realize_q(
    a,
    g: Graph,
    target_q: int,
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
) -> RealizationResult:
    """Matrix in the graph class with exactly ``target_q`` distinct
    eigenvalues, near A.

    The SSP (preferred) or the SMP at A reaches every nearby refinement at
    once (the bifurcation lemma), so the whole refinement is planned first
    and realized by one call: the largest cluster (first on ties) of the
    multiplicity list splits into (1, m - 1), ``target_q`` - q(A) times.
    With the SSP, :func:`realize_spectrum` moves the split clusters over a
    window of width min(gap / 4, trust radius), gap the smallest distance
    between the eigenvalues of A; with the SMP alone,
    :func:`realize_multiplicity_list` realizes the refined list.  q(A), the
    split and the achieved q are read on A / ||A||_F, where
    :func:`realize_multiplicity_list` reads its lists, and the achieved q
    is checked once.
    """
    a = symmetrize(a)
    if a.shape[0] != g.n:
        raise InputError(f"matrix size {a.shape[0]} does not match graph on {g.n} vertices")
    target_q = int(target_q)
    trust = _trust_radius(a, trust_radius)
    report = verify_ssp(a, g, tol)
    mode = "ssp" if report.holds else "smp"
    if mode == "smp":
        report = verify_smp(a, g, tol)
        if not report.holds:
            raise SurjectivityFailure("base matrix has neither the SSP nor the SMP")
    scale = fro(a) or 1.0  # below spread 1 the clustering threshold is absolute
    clusters = cluster_eigenvalues(sym_eig(a / scale, tol).eigenvalues, tol)
    q0 = len(clusters)
    if not q0 <= target_q <= g.n:
        raise TargetError(
            f"target q {target_q} must lie between q(A) = {q0} and n = {g.n}"
        )
    if target_q == q0:
        return _result(g.edges, a, "q", target_q, q0, 0, 0.0, (0.0,), report)

    # q < n leaves a cluster of size >= 2 to split
    fine = [mult for _, mult in clusters]
    for _split in range(target_q - q0):
        k = fine.index(max(fine))
        fine[k : k + 1] = [1, fine[k] - 1]
    if mode == "smp":
        res = realize_multiplicity_list(a, g, fine, tol, trust_radius, base_report=report)
    else:
        coarse = OrderedMultiplicityList(entries=tuple(m for _, m in clusters))
        blocks = refinement_blocks(OrderedMultiplicityList(entries=tuple(fine)), coarse)
        delta = min(0.25 * _min_cluster_gap(clusters), trust / scale)
        res = realize_spectrum(
            a, g, scale * _split_values(clusters, blocks, delta), tol, trust_radius,
            base_report=report,
        )
    q = len(cluster_eigenvalues(sym_eig(res.matrix / scale, tol).eigenvalues, tol))
    if q != target_q:
        raise TargetError(
            f"splitting eigenvalues left q at {q}, not {target_q}: the split "
            "width is below the eigenvalue clustering threshold (raise the "
            "trust radius or lower cluster_tol)"
        )
    return replace(res, target_kind="q", target=target_q, achieved=q)


def _char_poly_residual(a: np.ndarray, reference_coeffs: np.ndarray) -> float:
    return float(np.max(np.abs(char_poly(a) - reference_coeffs)))


# ---------------------------------------------------------------------------
# Spectral waypoints for realize_similar


def _slot_coords(mean: float, disc: float) -> np.ndarray:
    """Walk coordinates (mean, root) of a 2x2 slot whose eigenvalues are
    mean +- sqrt(disc): root = sqrt(disc) for a real pair and
    -sqrt(-disc) for a conjugate pair.  A straight line in (mean, root)
    moves the eigenvalues linearly, and one that changes the sign of root
    turns a real pair into a conjugate pair (or back) through a double
    eigenvalue."""
    return np.array([mean, math.copysign(math.sqrt(abs(disc)), disc)])


def _block_with(block: np.ndarray, mean: float, disc: float) -> np.ndarray:
    """``block`` changed as little as possible, among two one-parameter
    updates, to have eigenvalues mean +- sqrt(disc).

    Write the 2x2 block as m I + [[h, u + v], [u - v, -h]], so that its
    discriminant is h^2 + u^2 - v^2.  Either (h, u) is rescaled to radius
    sqrt(disc + v^2), keeping v, or |v| is set to sqrt(h^2 + u^2 - disc),
    keeping (h, u); the shorter feasible move is taken (one always is).
    That move is no longer than the move of the root in
    :func:`_slot_coords`, so the block moves in Frobenius norm by no more
    than its walk coordinates do.
    """
    h = (block[0, 0] - block[1, 1]) / 2.0
    u = (block[0, 1] + block[1, 0]) / 2.0
    v = (block[0, 1] - block[1, 0]) / 2.0
    r = math.hypot(h, u)
    moves = []
    if disc + v * v >= 0.0:
        r_new = math.sqrt(disc + v * v)
        moves.append((abs(r_new - r), r_new, v))
    if r * r - disc >= 0.0:
        v_new = math.copysign(math.sqrt(r * r - disc), v)
        moves.append((abs(v_new - v), r, v_new))
    _, r_new, v_new = min(moves)
    h, u = (h * r_new / r, u * r_new / r) if r > 0.0 else (r_new, 0.0)
    return np.array([[mean + h, u + v_new], [u - v_new, mean - h]])


@dataclass(frozen=True, eq=False)
class _SpectralWalk:
    """Straight line from the spectrum of Q T Q^T toward a target spectrum.

    ``slots`` holds (start, size, here, there) for each diagonal slot of T:
    a 1x1 slot walks its real eigenvalue (coordinates (value, 0)), a 2x2
    slot its (mean, root) from :func:`_slot_coords`.  ``distance`` is the
    length of the whole move, sqrt(sum size * |there - here|^2); it is the
    eigenvalue-matching distance, except on a slot that crosses the real
    axis, where it is an upper bound.
    """

    schur: RealSchurForm
    slots: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]
    distance: float

    def waypoint(self, trust: float) -> np.ndarray:
        """Q T' Q^T, with T' the Schur form moved along the walk by at most
        ``trust``, so that ||Q T' Q^T - Q T Q^T||_F <= trust.  When the
        target lies within ``trust``, T' has exactly the target spectrum."""
        s = 1.0 if self.distance <= trust else trust / self.distance
        t = self.schur.quasi_triangular.copy()
        for start, size, here, there in self.slots:
            mean, root = there if s == 1.0 else here + s * (there - here)
            if size == 1:
                t[start, start] = mean
            else:
                cells = slice(start, start + 2)
                t[cells, cells] = _block_with(t[cells, cells], mean, root * abs(root))
        q = self.schur.orthogonal
        return q @ t @ q.T


def _target_spectrum(schur: RealSchurForm) -> tuple[list[float], list[tuple[float, float]]]:
    """Ascending real eigenvalues and (mean, disc) of each 2x2 block."""
    t = schur.quasi_triangular
    blocks = schur.diagonal_blocks()
    reals = sorted(float(t[i, i]) for i, size in blocks if size == 1)
    return reals, [schur.block_mean_disc(i) for i, size in blocks if size == 2]


def _upper(mean: float, disc: float) -> complex:
    return complex(mean, math.sqrt(max(-disc, 0.0)))


def _nearest_window(mean: float, disc: float, values: list[float]) -> tuple[float, int]:
    """Cheapest index k at which the eigenvalues mean +- sqrt(disc) can take
    the adjacent values[k], values[k + 1] of an ascending list (the two
    values nearest a point are adjacent), and its squared matching cost."""
    costs = [
        (values[k] - mean) ** 2 + (values[k + 1] - mean) ** 2 - 2.0 * min(disc, 0.0)
        for k in range(len(values) - 1)
    ]
    k = int(np.argmin(costs))
    return costs[k], k


def _spectral_walk(
    schur: RealSchurForm,
    target_reals: list[float],
    target_pairs: list[tuple[float, float]],
) -> _SpectralWalk:
    """Match the diagonal blocks of a real Schur form to a target spectrum
    and return the walk between them.

    Conjugate pairs meet conjugate pairs greedily, nearest first, unless
    sending both to the two nearest free real eigenvalues on the other
    side is cheaper; a pair left over on either side is sent that way.  A
    pair and the two real eigenvalues it meets share a 2x2 slot: when they
    are 1x1 blocks of T, LAPACK's xTREXC first moves them next to each
    other (Q and T change together, Q T Q^T does not).  The remaining real
    eigenvalues are matched in ascending order, which is optimal on a line.
    """
    t, q = schur.quasi_triangular, schur.orthogonal
    blocks = schur.diagonal_blocks()
    real_starts = sorted((i for i, size in blocks if size == 1), key=lambda i: t[i, i])
    pair_starts = [i for i, size in blocks if size == 2]
    pairs = [schur.block_mean_disc(i) for i in pair_starts]
    reals = list(target_reals)
    # (blocks of T by their start before any reordering, target coordinates)
    matches: list[tuple[tuple[int, ...], np.ndarray]] = []

    def pair_to_reals(i: int) -> None:
        _, k = _nearest_window(*pairs[i], reals)
        lo, hi = reals.pop(k), reals.pop(k)
        matches.append(((pair_starts[i],), _slot_coords((lo + hi) / 2.0, ((hi - lo) / 2.0) ** 2)))

    def reals_to_pair(j: int) -> None:
        _, k = _nearest_window(*target_pairs[j], [t[i, i] for i in real_starts])
        matches.append(((real_starts.pop(k), real_starts.pop(k)), _slot_coords(*target_pairs[j])))

    free_pairs, free_targets = set(range(len(pairs))), set(range(len(target_pairs)))
    candidates = sorted(
        (abs(_upper(*pairs[i]) - _upper(*target_pairs[j])), i, j)
        for i in free_pairs
        for j in free_targets
    )
    for gap, i, j in candidates:
        if i not in free_pairs or j not in free_targets:
            continue
        free_pairs.remove(i)
        free_targets.remove(j)
        if (
            min(len(reals), len(real_starts)) >= 2
            and _nearest_window(*pairs[i], reals)[0]
            + _nearest_window(*target_pairs[j], [t[k, k] for k in real_starts])[0]
            < 2.0 * gap**2
        ):
            pair_to_reals(i)
            reals_to_pair(j)
        else:
            matches.append(((pair_starts[i],), _slot_coords(*target_pairs[j])))
    # at most one side has pairs left, and the other side the reals for them
    for i in sorted(free_pairs):
        pair_to_reals(i)
    for j in sorted(free_targets):
        reals_to_pair(j)
    matches.extend(((i,), np.array([x, 0.0])) for i, x in zip(real_starts, reals))

    # bring the real eigenvalues that share a slot next to each other
    order = [i for i, _ in blocks]
    size_of = dict(blocks)

    def row(key: int) -> int:
        return sum(size_of[k] for k in order[: order.index(key)])

    for keys, _ in matches:
        if len(keys) == 2:
            first, later = sorted(keys, key=order.index)
            t, q, info = scipy.linalg.lapack.dtrexc(t, q, row(later) + 1, row(first) + 2)
            order.remove(later)
            order.insert(order.index(first) + 1, later)
            if info != 0:
                raise NoConvergence("reordering the real Schur form failed")
    moved = RealSchurForm(orthogonal=q, quasi_triangular=t)
    if moved.diagonal_blocks() != [(row(k), size_of[k]) for k in order]:
        raise NoConvergence("reordering the real Schur form split a 2x2 block")

    slots = []
    for keys, there in matches:
        start = min(row(k) for k in keys)
        if len(keys) == 1 and size_of[keys[0]] == 1:
            slots.append((start, 1, np.array([t[start, start], 0.0]), there))
        else:
            slots.append((start, 2, _slot_coords(*moved.block_mean_disc(start)), there))
    distance = math.sqrt(sum(size * float(np.sum((b - a) ** 2)) for _, size, a, b in slots))
    return _SpectralWalk(schur=moved, slots=tuple(slots), distance=distance)


def _has_close_eigenvalues(schur: RealSchurForm, tol: Tolerances) -> bool:
    """Whether two eigenvalues lie within cluster_tol * max(1, spread)."""
    eigs = schur.eigenvalues()
    gaps = np.abs(eigs[:, None] - eigs[None, :])
    threshold = tol.cluster_tol * max(1.0, float(gaps.max(initial=0.0)))
    np.fill_diagonal(gaps, np.inf)
    return bool(np.any(gaps <= threshold))


def realize_similar(
    a,
    p: SignPattern,
    m_target,
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
    base_report: StrongPropertyReport | None = None,
) -> RealizationResult:
    """Matrix in the sign class similar to ``m_target``, near A.

    Requires the nSSP at A: ``base_report`` is the caller's nSSP report for
    A in the pattern (a report for another property is refused); without
    one, A is verified here.  A target within the trust radius of the
    current matrix is solved for in one hop.  Farther targets are reached
    through the spectrum, which is what the map controls: each hop takes
    the real Schur form Q T Q^T of the current matrix, moves T's diagonal
    blocks toward the matched target eigenvalues by at most the trust
    radius (see :func:`_spectral_walk`) and solves for Q T' Q^T, re-basing
    on each realized matrix; the eigenvalue distance must shrink by a
    tenth of the trust radius per hop, or the radius halves.  The walk
    ends with the hop that reaches the target spectrum, which fixes the
    similarity class when the target's eigenvalues are distinct; a far
    target with two eigenvalues within the clustering threshold raises
    :class:`NoConvergence`, because a matched spectrum would not prove
    similarity.  Agreement is checked on characteristic polynomials
    (similarity invariants), recorded as the achieved residual.
    """
    a = as_matrix(a)
    m_target = as_matrix(m_target, "target matrix")
    if m_target.shape != a.shape:
        raise InputError("target shape does not match the base matrix")
    trust = _trust_radius(a, trust_radius)
    base_report = _checked_base(base_report, "nssp", lambda: verify_nssp(a, tol, pattern=p))
    target_coeffs = char_poly(m_target)
    target = walk = None  # computed when a hop first falls short of m_target

    def plan(cur, trust):
        nonlocal target, walk
        if fro(m_target - cur) <= trust:
            return m_target, True
        if target is None:
            target_schur = real_schur(m_target)
            if _has_close_eigenvalues(target_schur, tol):
                raise NoConvergence(
                    "target is farther than the trust radius and has a "
                    "repeated eigenvalue: the spectral walk would end on "
                    "its spectrum, which does not fix its similarity class"
                )
            target = _target_spectrum(target_schur)
        if walk is None:
            walk = _spectral_walk(real_schur(cur), *target)
        return walk.waypoint(trust), walk.distance <= trust

    def progress(new, trust):
        # each accepted hop must shorten the spectral path
        nonlocal walk
        old, walk = walk, _spectral_walk(real_schur(new), *target)
        return not walk.distance > old.distance - 0.1 * trust

    res = _homotopy(
        similarity_map(a, p), base_report, trust, plan, tol, "similarity homotopy",
        progress=progress,
    )
    achieved = _char_poly_residual(res.matrix, target_coeffs)
    return replace(res, target_kind="similar", target=m_target, achieved=achieved)


def realize_superpattern(
    a,
    p: SignPattern,
    p_super: SignPattern,
    step: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> RealizationResult:
    """Matrix in the superpattern's class similar to A.

    Targets M = A + step * E where E carries +-1 at the cells nonzero in
    the superpattern but zero in the base pattern; solving the
    superpattern map leaves exactly those entries in place while the base
    pattern absorbs the correction B'.  The step, the hop's trust radius
    (finite and positive when given), halves until the solve succeeds (one
    hop of :func:`_homotopy`).
    """
    a = as_matrix(a)
    if not is_superpattern(p_super, p):
        raise NotASuperpattern("second pattern is not a superpattern of the first")
    if step is not None:
        step = _trust_radius(a, step)
    base_report = _checked_base(None, "nssp", lambda: verify_nssp(a, tol, pattern=p))
    new_cells = [
        (i, j)
        for (i, j) in p_super.nonzero_cells()
        if p.sign_at(i, j) == 0
    ]
    if not new_cells:
        return _result(
            p.nonzero_cells(), a, "superpattern",
            p_super.to_lines(), 0.0, 0, 0.0, (0.0,), base_report,
        )
    e = np.zeros_like(a)
    for i, j in new_cells:
        e[i, j] = float(p_super.sign_at(i, j))
    s = 0.5 * default_trust_radius(a) / math.sqrt(len(new_cells)) if step is None else step
    res = _homotopy(
        superpattern_map(a, p, p_super), base_report, s,
        lambda _cur, size: (a + size * e, True), tol, "superpattern step",
    )
    achieved = _char_poly_residual(res.matrix, char_poly(a))
    return replace(res, target_kind="superpattern", target=p_super.to_lines(), achieved=achieved)
