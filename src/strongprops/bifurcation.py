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

Solving F(parameters) = M for a nearby target M with minimum-norm
Gauss-Newton steps produces A' = A + B' inside the pattern with the same
invariant as M, and the strong property persists for small steps; every
solve re-verifies it rather than assuming.  Far targets are reached by a
straight-line homotopy that re-bases onto each accepted intermediate
matrix, keeping all parameters small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    InputError,
    NoConvergence,
    NotARefinement,
    NotASuperpattern,
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
    lstsq_min_norm,
    rank,  # not called here; bench/spans.py traces bifurcation.rank
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
    StrongPropertyReport,
    verify_nssp,
    verify_sap,
    verify_smp,
    verify_ssp,
)

MAX_TRUST_HALVINGS = 20
MAX_HOMOTOPY_HOPS = 500
#: Gauss-Newton steps keep ||L|| at or below this, safely inside the
#: ||L|| < 0.5 region where I + L stays invertible.
L_NORM_CAP = 0.45

_SYMMETRIC_KINDS = ("ssp", "smp", "sap")
_NSSP_KINDS = ("nssp_similar", "nssp_superpattern")
MAP_KINDS = _SYMMETRIC_KINDS + _NSSP_KINDS


def default_trust_radius(a) -> float:
    """Initial step bound 0.1 * (1 + ||A||_F) for targets reached in one solve."""
    return 0.1 * (1.0 + fro(np.asarray(a, dtype=float)))


@dataclass(eq=False)
class PerturbationMap:
    """One of the five perturbation maps, with parameter bookkeeping.

    Parameters are a flat vector [b-coefficients | K/L-coefficients |
    polynomial coefficients (smp only)] against orthonormal bases of the
    pattern space and the skew/full matrix space.
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
            self._b_basis = graph_closure_basis(self.graph)
            self._second_basis = (
                skew_basis(self.n) if self.kind in ("ssp", "smp") else full_basis(self.n)
            )
            self.ambient_dim = self.n * (self.n + 1) // 2
        else:
            if self.pattern is None:
                raise InputError(f"{self.kind} map needs a sign pattern")
            self._b_basis = sign_tangent_basis(self.pattern)
            self._second_basis = full_basis(self.n)
            self.ambient_dim = self.n * self.n
        self._c_dim = self.q if self.kind == "smp" else 0
        if self.kind == "smp" and (self.q is None or self.q < 1):
            raise InputError("smp map needs q >= 1")
        self.param_dim = self._b_basis.dim + self._second_basis.dim + self._c_dim

    # -- parameter bookkeeping ------------------------------------------

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

    def _combine(self, basis, coeffs) -> np.ndarray:
        if basis.dim == 0:
            return np.zeros((self.n, self.n))
        return basis.combine(coeffs)

    def b_matrix(self, params) -> np.ndarray:
        return self._combine(self._b_basis, self._unpack(params)[0])

    def second_matrix(self, params) -> np.ndarray:
        return self._combine(self._second_basis, self._unpack(params)[1])

    def second_norm(self, params) -> float:
        return float(np.linalg.norm(self._unpack(params)[1]))

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
        bm = self._combine(self._b_basis, b)
        sm = self._combine(self._second_basis, s)
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
        """Directional derivatives along every basis direction, stacked as
        columns of an (n^2 x param_dim) matrix, all built at once from the
        (dim, n, n) basis stacks.  Analytic at every parameter value.

        For ssp/smp the derivative along a skew direction E is
        e^-K [mid, Psi(E)] e^K, where mid = A + B (or p(A + B)) and
        Psi(E) = L_exp(K, E) e^-K = int_0^1 e^{sK} E e^{-sK} ds comes from
        the divided-difference formula in K's eigenbasis (see
        :func:`_exp_derivative_factor`).  At K = 0, Psi is the identity
        and no exponential is formed, so J(0) has the exact columns
        mid E - E mid, the pattern directions and the powers of A + B.
        """
        b, s, c = self._unpack(params)
        bm = self._combine(self._b_basis, b)
        sm = self._combine(self._second_basis, s)
        b_dirs, s_dirs = self._b_basis.stack, self._second_basis.stack
        if self.kind in ("ssp", "smp"):
            m = self.base + bm
            powers = [np.eye(self.n)]
            for _ in range(self._c_dim - 1):
                powers.append(powers[-1] @ m)
            mid = self._poly_apply(m, c) if self.kind == "smp" else m
            inner = b_dirs
            for k in range(1, self._c_dim):
                # derivative of p(M) along the pattern directions
                if c[k] != 0.0:
                    term = sum(powers[j] @ b_dirs @ powers[k - 1 - j] for j in range(k))
                    inner = inner + c[k] * term
            psi = _exp_derivative_factor(sm, s_dirs)
            blocks = [inner, mid @ psi - psi @ mid]
            if self.kind == "smp":
                blocks.append(np.stack(powers))
            if sm.any():
                e_pos = scipy.linalg.expm(sm)
                e_neg = scipy.linalg.expm(-sm)
                blocks = [e_neg @ block @ e_pos for block in blocks]
        elif self.kind == "sap":
            m = self.base + bm
            s_mat = np.eye(self.n) + sm
            blocks = [
                s_mat.T @ b_dirs @ s_mat,
                s_dirs.transpose(0, 2, 1) @ m @ s_mat + s_mat.T @ m @ s_dirs,
            ]
        else:
            s_mat = np.eye(self.n) + sm
            s_inv = np.linalg.inv(s_mat)
            if self.kind == "nssp_similar":
                m = self.base + bm
                b_cols = s_inv @ b_dirs @ s_mat
            else:
                m = self.base
                b_cols = b_dirs
            f0 = s_inv @ m @ s_mat
            blocks = [b_cols, -s_inv @ s_dirs @ f0 + s_inv @ m @ s_dirs]
        return np.concatenate(blocks).reshape(-1, self.n * self.n).T

    # -- class checks and extraction --------------------------------------

    def extract(self, params, m_target: np.ndarray) -> np.ndarray:
        """Realized matrix A' for converged parameters."""
        bm = self.b_matrix(params)
        if self.kind == "nssp_superpattern":
            return m_target - bm
        out = self.base + bm
        if self.kind in _SYMMETRIC_KINDS:
            out = (out + out.T) / 2.0
        return out

    def check_pattern(self):
        return self.super_pattern if self.kind == "nssp_superpattern" else self.pattern

    def in_class(self, a: np.ndarray, tol: Tolerances) -> bool:
        if self.kind in _SYMMETRIC_KINDS:
            return matrix_in_graph_class(a, self.graph, tol)
        return matrix_in_sign_class(a, self.check_pattern(), tol)

    def required_nonzero(self) -> list[tuple[int, int]]:
        if self.kind in _SYMMETRIC_KINDS:
            return [(i, j) for i, j in self.graph.edges]
        return self.check_pattern().nonzero_cells()

    def recheck(self, a: np.ndarray, tol: Tolerances) -> StrongPropertyReport:
        if self.kind == "ssp":
            return verify_ssp(a, self.graph, tol)
        if self.kind == "smp":
            return verify_smp(a, self.graph, tol)
        if self.kind == "sap":
            return verify_sap(a, self.graph, tol)
        return verify_nssp(a, tol, pattern=self.check_pattern())

    def verify_base(self, tol: Tolerances) -> StrongPropertyReport:
        """Report of the property that holds at the base exactly when J(0)
        is onto; the superpattern map perturbs within the base's pattern."""
        if self.kind == "nssp_superpattern":
            return verify_nssp(self.base, tol, pattern=self.pattern)
        return self.recheck(self.base, tol)


def _exp_derivative_factor(k: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Psi(E) = L_exp(K, E) e^-K = int_0^1 e^{sK} E e^{-sK} ds for a skew K,
    for every E in the (d, n, n) stack ``directions``.

    With K = V diag(lambda) V^H, Psi(E) = V (phi o V^H E V) V^H where
    phi_ij = expm1(lambda_i - lambda_j) / (lambda_i - lambda_j), and 1 where
    the eigenvalues coincide (Daleckii-Krein; Higham, Functions of Matrices,
    2008, sec. 3.2).  The eigenvalues of a skew K are imaginary: with
    lambda_i - lambda_j = i theta_ij, phi_ij = sin(theta)/theta +
    i (1 - cos(theta))/theta, evaluated as sinc(theta) +
    i (theta/2) sinc(theta/2)^2 (unnormalized sinc), which has no
    cancellation at small gaps and is exactly 1 at theta = 0.  At K = 0 the
    stack is returned as it is.
    """
    if not k.any():
        return directions
    mu, v = np.linalg.eigh(1j * k)  # K = V diag(-i mu) V^H
    theta = mu[None, :] - mu[:, None]
    phi = np.sinc(theta / np.pi) + 0.5j * theta * np.sinc(theta / (2.0 * np.pi)) ** 2
    vh = v.conj().T
    return (v @ (phi * (vh @ directions @ v)) @ vh).real


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


def evaluate_map(f: PerturbationMap, params) -> np.ndarray:
    """Value of the perturbation map at the given flat parameter vector."""
    return f.evaluate(params)


def derivative_at(f: PerturbationMap, params) -> np.ndarray:
    """Analytic Jacobian (n^2 x param_dim) of the map at the parameters."""
    return f.jacobian(params)


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
    recheck: bool = True,
    base_report: StrongPropertyReport | None = None,
) -> RealizationResult:
    """Solve F(parameters) = M_target by minimum-norm Gauss-Newton.

    The derivative at zero must be surjective (else
    :class:`SurjectivityFailure`).  That is the map's strong property at
    its base, so the verifier decides it: ``base_report`` is the report of
    that property for ``f.base``, which the caller vouches for; without
    one, the base is verified here.  The caller keeps ||M_target - A||
    within a trust radius, retrying with a shorter step on
    :class:`NoConvergence` or :class:`PatternViolation`.  On success the
    realized matrix is pattern-checked and its strong property re-verified.
    """
    m = as_matrix(m_target, "target matrix")
    if m.shape != f.base.shape:
        raise InputError(
            f"target shape {m.shape} does not match base shape {f.base.shape}"
        )
    base_report = f.verify_base(tol) if base_report is None else base_report
    prop = "nssp" if f.kind in _NSSP_KINDS else f.kind
    if base_report.property_name != prop:
        raise InputError(
            f"base report is for the {base_report.property_name.upper()}, "
            f"but a {f.kind} map needs the {prop.upper()}"
        )
    if not base_report.holds:
        raise SurjectivityFailure(
            "derivative at zero is not surjective: the base matrix lacks the "
            "strong property matching this map"
        )
    params = f.zero_params()
    trace: list[float] = []
    best = math.inf
    iterations = 0
    for it in range(tol.max_iter + 1):
        value = f.evaluate(params)
        residual = (m - value).reshape(-1)
        res_norm = float(np.linalg.norm(residual))
        trace.append(res_norm)
        best = min(best, res_norm)
        if res_norm <= tol.newton_tol:
            iterations = it
            break
        if it == tol.max_iter:
            raise NoConvergence(
                f"no convergence after {tol.max_iter} Gauss-Newton iterations "
                f"(best residual {best:.3e})",
                best_residual=best,
                trace=trace,
            )
        step = lstsq_min_norm(f.jacobian(params), residual, tol)
        new_params = params + step
        if f.kind in _NSSP_KINDS:
            l_old = f.second_norm(params)
            l_new = f.second_norm(new_params)
            if l_new > L_NORM_CAP:
                scale = max((L_NORM_CAP - l_old), 0.0) / max(l_new - l_old, 1e-300)
                if scale <= 0.0:
                    raise NoConvergence(
                        "Gauss-Newton step would push ||L|| past the invertibility "
                        "cap; shrink the target step",
                        best_residual=best,
                        trace=trace,
                    )
                new_params = params + scale * step
        params = new_params

    a_prime = f.extract(params, m)
    if not f.in_class(a_prime, tol):
        raise PatternViolation(
            "realized matrix left the pattern class; the target step was too large"
        )
    report = None
    if recheck:
        report = f.recheck(a_prime, tol)
        if not report.holds:
            raise PropertyNotPreserved(
                "realized matrix lost the strong property; the target step was "
                "too large"
            )
    return _result(
        f.required_nonzero(),
        a_prime,
        "matrix",
        m,
        a_prime,
        iterations,
        trace[-1] if trace else 0.0,
        trace,
        report,
    )


# ---------------------------------------------------------------------------
# Realizers built on the solver


def realize_spectrum(
    a,
    g: Graph,
    target,
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
) -> RealizationResult:
    """Matrix in the graph class with the given spectrum, near A.

    Requires the SSP at A.  Builds M = Q diag(target) Q^T from the
    eigendecomposition of the current base and, when the spectral step
    exceeds the trust radius, walks a straight-line homotopy in spectrum
    space, re-basing on each realized intermediate matrix (the property
    persists at every step, so each hop starts from a verified base).
    """
    a = symmetrize(a)
    target = np.sort(np.asarray(target, dtype=float).reshape(-1))
    if target.shape[0] != g.n:
        raise InputError(f"target spectrum must have {g.n} values")
    if not np.all(np.isfinite(target)):
        raise InputError("target spectrum contains non-finite values")
    base_report = verify_ssp(a, g, tol)
    if not base_report.holds:
        raise SurjectivityFailure("base matrix does not have the SSP")

    cur, report = a, base_report
    trust = default_trust_radius(a) if trust_radius is None else float(trust_radius)
    halvings = 0
    total_iters = 0
    trace: list[float] = []
    for _hop in range(MAX_HOMOTOPY_HOPS):
        dec = sym_eig(cur, tol)
        delta = target - dec.eigenvalues
        dist = float(np.linalg.norm(delta))
        final_hop = dist <= trust
        waypoint = target if final_hop else dec.eigenvalues + (trust / dist) * delta
        m = dec.eigenvectors @ np.diag(waypoint) @ dec.eigenvectors.T
        m = (m + m.T) / 2.0
        try:
            res = solve_to_target(ssp_map(cur, g), m, tol, base_report=report)
        except (NoConvergence, PatternViolation):
            halvings += 1
            trust /= 2.0
            if halvings > MAX_TRUST_HALVINGS:
                raise NoConvergence(
                    "spectrum homotopy failed after "
                    f"{MAX_TRUST_HALVINGS} trust-radius halvings"
                ) from None
            continue
        cur, report = res.matrix, res.property_report
        total_iters += res.iterations
        trace.extend(res.residual_trace)
        if final_hop:
            achieved = sym_eig(cur, tol).eigenvalues
            return _result(
                g.edges,
                cur,
                "spectrum",
                tuple(float(v) for v in target),
                tuple(float(v) for v in achieved),
                total_iters,
                res.final_residual,
                trace,
                report,
            )
    raise NoConvergence("spectrum homotopy did not terminate")


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
) -> RealizationResult:
    """Matrix in the graph class whose ordered multiplicity list is the
    given refinement of the base matrix's list, realized through the SMP
    map.

    The base is rescaled to unit Frobenius norm for the solve (the
    correction polynomial uses raw monomials, so conditioning matters)
    and scaled back afterwards; scaling is an exact similarity-respecting
    transformation.  The achieved list is post-checked against the target
    rather than assumed.
    """
    a = symmetrize(a)
    if a.shape[0] != g.n:
        raise InputError(f"matrix size {a.shape[0]} does not match graph on {g.n} vertices")
    target = OrderedMultiplicityList(entries=tuple(int(m) for m in target))
    if target.total != g.n:
        raise InputError(f"multiplicity list must sum to {g.n}")
    base_report = verify_smp(a, g, tol)
    if not base_report.holds:
        raise SurjectivityFailure("base matrix does not have the SMP")

    scale = max(1.0, fro(a))
    w = a / scale
    clusters = cluster_eigenvalues(sym_eig(w, tol).eigenvalues, tol)
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

    trust = default_trust_radius(w) if trust_radius is None else float(trust_radius)
    delta = min(0.25 * _min_cluster_gap(clusters), trust)
    dec = sym_eig(w, tol)
    last_error: Exception | None = None
    for _attempt in range(MAX_TRUST_HALVINGS + 1):
        split = _split_values(clusters, blocks, delta)
        m = dec.eigenvectors @ np.diag(split) @ dec.eigenvectors.T
        m = (m + m.T) / 2.0
        try:
            # the SMP of the scaled base is the SMP of A, and the realized
            # matrix is verified once, after scaling back
            res = solve_to_target(
                smp_map(w, g, tol), m, tol, recheck=False, base_report=base_report
            )
        except (NoConvergence, PatternViolation) as exc:
            last_error = exc
            delta /= 2.0
            continue
        a_prime = scale * res.matrix
        achieved = ordered_multiplicity_list(sym_eig(a_prime, tol).eigenvalues, tol)
        if tuple(achieved) != tuple(target):
            raise NoConvergence(
                f"achieved multiplicity list {tuple(achieved)} differs from the "
                f"target {tuple(target)}"
            )
        report = verify_smp(a_prime, g, tol)
        if not report.holds:
            raise PropertyNotPreserved(
                "realized matrix lost the SMP; the split was too large"
            )
        return _result(
            g.edges,
            a_prime,
            "multiplicity_list",
            tuple(target),
            tuple(achieved),
            res.iterations,
            res.final_residual,
            res.residual_trace,
            report,
        )
    raise NoConvergence(
        f"multiplicity split failed after {MAX_TRUST_HALVINGS} shrinkings "
        f"(last error: {last_error})"
    )


def realize_inertia(
    a,
    g: Graph,
    target: tuple[int, int],
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
    _target_kind: str = "inertia",
    _target_value=None,
) -> RealizationResult:
    """Matrix in the graph class with the given partial inertia, reached
    from A by one-at-a-time northeast steps (zero eigenvalue -> +delta or
    -delta through the SAP map), re-verifying the SAP at every step.

    Positive steps are taken before negative ones; the order does not
    affect reachability since the property is re-verified each time.
    """
    a = symmetrize(a)
    if a.shape[0] != g.n:
        raise InputError(f"matrix size {a.shape[0]} does not match graph on {g.n} vertices")
    p_target, q_target = int(target[0]), int(target[1])
    if p_target < 0 or q_target < 0 or p_target + q_target > g.n:
        raise UnreachableInertia(
            f"inertia ({p_target}, {q_target}) is not feasible for n = {g.n}"
        )
    base_report = verify_sap(a, g, tol)
    if not base_report.holds:
        raise SurjectivityFailure("base matrix does not have the SAP")
    p0, q0 = pin(a, tol)
    if p_target < p0 or q_target < q0:
        raise UnreachableInertia(
            f"target ({p_target}, {q_target}) would decrease a nonzero count of "
            f"the base partial inertia ({p0}, {q0})"
        )

    cur = a
    report = base_report
    total_iters = 0
    trace: list[float] = []
    final_residual = 0.0
    halvings = 0
    for _step in range(4 * g.n + MAX_TRUST_HALVINGS):
        p_cur, q_cur = pin(cur, tol)
        if (p_cur, q_cur) == (p_target, q_target):
            achieved = (p_cur, q_cur)
            return _result(
                g.edges,
                cur,
                _target_kind,
                (p_target, q_target) if _target_value is None else _target_value,
                achieved if _target_kind == "inertia" else p_cur + q_cur,
                total_iters,
                final_residual,
                trace if trace else (0.0,),
                report,
            )
        sign = 1.0 if p_cur < p_target else -1.0
        dec = sym_eig(cur, tol)
        zero_thr = eig_zero_threshold(cur, tol)
        zero_idx = [i for i, lam in enumerate(dec.eigenvalues) if abs(lam) <= zero_thr]
        if not zero_idx:
            raise UnreachableInertia(
                "no zero eigenvalue left to perturb; the partial inertia "
                f"({p_cur}, {q_cur}) cannot reach ({p_target}, {q_target})"
            )
        trust = default_trust_radius(cur) if trust_radius is None else float(trust_radius)
        delta = 0.5 * trust / (2.0 ** halvings)
        new_lam = dec.eigenvalues.copy()
        new_lam[zero_idx[0]] = sign * delta
        m = dec.eigenvectors @ np.diag(new_lam) @ dec.eigenvectors.T
        m = (m + m.T) / 2.0
        try:
            res = solve_to_target(sap_map(cur, g), m, tol, base_report=report)
        except (NoConvergence, PatternViolation):
            halvings += 1
            if halvings > MAX_TRUST_HALVINGS:
                raise NoConvergence(
                    "inertia step failed after repeated shrinkings"
                ) from None
            continue
        cur = res.matrix
        report = res.property_report
        total_iters += res.iterations
        final_residual = res.final_residual
        trace.extend(res.residual_trace)
    raise NoConvergence("inertia walk did not terminate")


def realize_rank(
    a,
    g: Graph,
    target_rank: int,
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
) -> RealizationResult:
    """Matrix in the graph class with the given rank (northeast steps on
    the zero eigenvalues; all added eigenvalues are positive)."""
    a = symmetrize(a)
    target_rank = int(target_rank)
    p0, q0 = pin(a, tol)
    r = p0 + q0
    if not r <= target_rank <= g.n:
        raise TargetError(
            f"target rank {target_rank} must lie between rank(A) = {r} and n = {g.n}"
        )
    res = realize_inertia(
        a, g, (p0 + (target_rank - r), q0), tol, trust_radius,
        _target_kind="rank", _target_value=target_rank,
    )
    return res


def realize_q(
    a,
    g: Graph,
    target_q: int,
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
) -> RealizationResult:
    """Matrix in the graph class with exactly ``target_q`` distinct
    eigenvalues, obtained by repeatedly splitting one multiple eigenvalue
    into two; the SSP (preferred) or SMP is re-verified at every step."""
    a = symmetrize(a)
    if a.shape[0] != g.n:
        raise InputError(f"matrix size {a.shape[0]} does not match graph on {g.n} vertices")
    target_q = int(target_q)
    report = verify_ssp(a, g, tol)
    mode = "ssp" if report.holds else "smp"
    if mode == "smp":
        report = verify_smp(a, g, tol)
        if not report.holds:
            raise SurjectivityFailure("base matrix has neither the SSP nor the SMP")
    clusters = cluster_eigenvalues(sym_eig(a, tol).eigenvalues, tol)
    q0 = len(clusters)
    if not q0 <= target_q <= g.n:
        raise TargetError(
            f"target q {target_q} must lie between q(A) = {q0} and n = {g.n}"
        )

    cur = a
    total_iters = 0
    trace: list[float] = []
    final_residual = 0.0
    # every split raises q by at least one, so n splits reach any target
    for _split in range(g.n):
        q_cur = len(clusters)
        if q_cur >= target_q:
            return _result(
                g.edges,
                cur,
                "q",
                target_q,
                q_cur,
                total_iters,
                final_residual,
                trace if trace else (0.0,),
                report,
            )
        # split the largest cluster (first on ties) into (1, m - 1)
        idx = max(range(q_cur), key=lambda i: clusters[i][1])
        if mode == "smp":
            new_list = []
            for i, (_, mult) in enumerate(clusters):
                if i == idx:
                    new_list.extend([1, mult - 1])
                else:
                    new_list.append(mult)
            res = realize_multiplicity_list(cur, g, new_list, tol, trust_radius)
        else:
            trust = default_trust_radius(cur) if trust_radius is None else float(trust_radius)
            delta = min(0.25 * _min_cluster_gap(clusters), trust)
            values: list[float] = []
            for i, (center, mult) in enumerate(clusters):
                if i == idx:
                    values.append(center - delta / 2.0)
                    values.extend([center + delta / 2.0] * (mult - 1))
                else:
                    values.extend([center] * mult)
            res = realize_spectrum(cur, g, values, tol, trust_radius)
        cur = res.matrix
        report = res.property_report
        total_iters += res.iterations
        final_residual = res.final_residual
        trace.extend(res.residual_trace)
        clusters = cluster_eigenvalues(sym_eig(cur, tol).eigenvalues, tol)
        if len(clusters) <= q_cur:
            raise TargetError(
                f"splitting an eigenvalue left q at {q_cur}: the split width is "
                "below the eigenvalue clustering threshold (raise the trust "
                "radius or lower cluster_tol)"
            )
    raise NoConvergence("q splitting did not terminate")


def _char_poly_residual(a: np.ndarray, reference_coeffs: np.ndarray) -> float:
    return float(np.max(np.abs(char_poly(a) - reference_coeffs)))


def realize_similar(
    a,
    p: SignPattern,
    m_target,
    tol: Tolerances = DEFAULT_TOL,
    trust_radius: float | None = None,
) -> RealizationResult:
    """Matrix in the sign class similar to ``m_target``, near A.

    Requires the nSSP at A.  Distant targets are approached by a
    straight-line homotopy in matrix space with re-basing; only the final
    hop lands on the target's similarity class.  Agreement is checked on
    characteristic polynomials (similarity invariants), recorded as the
    achieved residual.
    """
    a = as_matrix(a)
    m_target = as_matrix(m_target, "target matrix")
    if m_target.shape != a.shape:
        raise InputError("target shape does not match the base matrix")
    base_report = verify_nssp(a, tol, pattern=p)
    if not base_report.holds:
        raise SurjectivityFailure("base matrix does not have the nSSP")
    target_coeffs = char_poly(m_target)

    cur, report = a, base_report
    trust = default_trust_radius(a) if trust_radius is None else float(trust_radius)
    halvings = 0
    total_iters = 0
    trace: list[float] = []
    for _hop in range(MAX_HOMOTOPY_HOPS):
        d = m_target - cur
        dist = fro(d)
        final_hop = dist <= trust
        m = m_target if final_hop else cur + (trust / dist) * d
        try:
            res = solve_to_target(similarity_map(cur, p), m, tol, base_report=report)
        except (NoConvergence, PatternViolation):
            halvings += 1
            trust /= 2.0
            if halvings > MAX_TRUST_HALVINGS:
                raise NoConvergence(
                    "similarity homotopy failed after "
                    f"{MAX_TRUST_HALVINGS} trust-radius halvings"
                ) from None
            continue
        new_cur = res.matrix
        total_iters += res.iterations
        trace.extend(res.residual_trace)
        if final_hop:
            residual = _char_poly_residual(new_cur, target_coeffs)
            return _result(
                p.nonzero_cells(),
                new_cur,
                "similar",
                m_target,
                residual,
                total_iters,
                res.final_residual,
                trace,
                res.property_report,
            )
        # progress guard: each accepted hop must shorten the remaining path
        if fro(m_target - new_cur) > dist - 0.1 * trust:
            halvings += 1
            trust /= 2.0
            if halvings > MAX_TRUST_HALVINGS:
                raise NoConvergence("similarity homotopy stalled") from None
        cur, report = new_cur, res.property_report
    raise NoConvergence("similarity homotopy did not terminate")


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
    pattern absorbs the correction B'.  The step auto-shrinks when the
    realized matrix falls out of the class.
    """
    a = as_matrix(a)
    if not is_superpattern(p_super, p):
        raise NotASuperpattern("second pattern is not a superpattern of the first")
    base_report = verify_nssp(a, tol, pattern=p)
    if not base_report.holds:
        raise SurjectivityFailure("base matrix does not have the nSSP")
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
    base_coeffs = char_poly(a)
    s = (
        0.5 * default_trust_radius(a) / math.sqrt(len(new_cells))
        if step is None
        else float(step)
    )
    if s <= 0.0:
        raise InputError("step size must be positive")
    last_error: Exception | None = None
    for _attempt in range(MAX_TRUST_HALVINGS + 1):
        m = a + s * e
        try:
            res = solve_to_target(
                superpattern_map(a, p, p_super), m, tol, base_report=base_report
            )
        except (NoConvergence, PatternViolation) as exc:
            last_error = exc
            s /= 2.0
            continue
        residual = _char_poly_residual(res.matrix, base_coeffs)
        return _result(
            p_super.nonzero_cells(),
            res.matrix,
            "superpattern",
            p_super.to_lines(),
            residual,
            res.iterations,
            res.final_residual,
            res.residual_trace,
            res.property_report,
        )
    raise NoConvergence(
        f"superpattern step failed after {MAX_TRUST_HALVINGS} shrinkings "
        f"(last error: {last_error})"
    )
