"""Sign-pattern certification pipelines.

A sign pattern is *spectrally arbitrary* when every conjugation-invariant
multiset of n complex numbers is the spectrum of some matrix in its
class, and *inertially arbitrary* when every inertia triple is realized.
Both certifications run the same play: verify a hypothesis on a witness
matrix (nilpotency and/or a refined-inertia shape, plus the nSSP), build
an explicit nearby target with the wanted spectrum from the witness's
real Schur form, realize it inside the pattern (spectra with
:func:`strongprops.bifurcation.realize_similar`, inertias in one hop of
its driver :func:`strongprops.bifurcation._homotopy`), and record the
evidence.

Certificates are evidence-based: they verify the hypothesis of the
underlying theorem and demonstrate a finite list of sampled targets; the
mathematical statement covers all targets, the certificate records the
hypothesis plus the samples, never a proof over all spectra.

The nilpotent-Jacobian diagnostic is included for comparison: it maps n
chosen nonzero entries to the non-leading characteristic-polynomial
coefficients and reports whether the derivative at the witness is
invertible (which can fail for nilpotent witnesses of low index even
when the nSSP certification above still applies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bifurcation import _homotopy, default_trust_radius, realize_similar, similarity_map
from .errors import (
    HypothesisFailure,
    InputError,
    InternalCheckError,
    NoConvergence,
    SurjectivityFailure,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    char_poly,
    char_poly_faddeev,
    fro,
    poly_from_spectrum,
    rank,
    real_schur,
    require_square,
)
from .patterns import (
    SignPattern,
    eig_zero_threshold,
    entry_zero_threshold,
    inertia,
    matrix_in_sign_class,
    rin,
)
from .verifiers import StrongPropertyReport, verify_nssp

#: Relative bound for ||A^n||_F below which A counts as nilpotent, and for
#: the Schur-diagonal check run alongside it (powers amplify error, so
#: both checks are required).
NILPOTENT_NORM_RTOL = 1e-8
#: Largest acceptable deviation of realized characteristic-polynomial
#: coefficients from the target's, measured at the full (scaled-back) size.
CHAR_POLY_RESIDUAL_TOL = 1e-7
#: Newton tolerance of the spectral certificate's solves (or the caller's,
#: when tighter): the scale-back by k amplifies coefficient errors by k^n,
#: so the downscaled solve must land well below the reporting tolerance.
#: A solve stops at its first residual under it, so it bounds that error.
_CERT_NEWTON_TOL = 1e-14
#: Per-target retries of the spectral certificate, doubling the downscale
#: factor k each time.
_CERT_SCALE_ATTEMPTS = 7


@dataclass(frozen=True)
class ConjInvariantSpectrum:
    """Multiset of n complex numbers closed under conjugation.

    ``reals`` lists the real members in the order given; ``pairs`` holds
    one (a, b) with b > 0 for each conjugate pair a +- b*i.
    """

    reals: tuple[float, ...] = ()
    pairs: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for r in self.reals:
            if not math.isfinite(r):
                raise InputError("spectrum entries must be finite")
        for a, b in self.pairs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise InputError("spectrum entries must be finite")
            if b <= 0:
                raise InputError("conjugate pairs must have positive imaginary part")
        if not math.isfinite(self.sum_squares()):
            raise InputError("sum of squared moduli of the spectrum overflows")
        if not np.all(np.isfinite(self.char_poly())):
            raise InputError("characteristic polynomial of the spectrum overflows")

    @classmethod
    def from_values(cls, values, imag_tol: float = 1e-12) -> "ConjInvariantSpectrum":
        """Group complex values into reals and conjugate pairs, requiring the
        multiset to be invariant under conjugation."""
        vals = [complex(v) for v in values]
        scale = max([1.0] + [abs(v) for v in vals])
        thr = imag_tol * scale
        reals = [v.real for v in vals if abs(v.imag) <= thr]
        rest = [v for v in vals if abs(v.imag) > thr]
        pos = sorted((v for v in rest if v.imag > 0), key=lambda v: (v.real, v.imag))
        neg = sorted((v for v in rest if v.imag < 0), key=lambda v: (v.real, -v.imag))
        if len(pos) != len(neg):
            raise InputError("spectrum is not invariant under conjugation")
        pairs = []
        for u, w in zip(pos, neg):
            if abs(u - w.conjugate()) > 1e-9 * scale:
                raise InputError("spectrum is not invariant under conjugation")
            pairs.append((u.real, u.imag))
        return cls(reals=tuple(reals), pairs=tuple(pairs))

    @property
    def size(self) -> int:
        return len(self.reals) + 2 * len(self.pairs)

    def sum_squares(self) -> float:
        return float(
            sum(r * r for r in self.reals)
            + sum(2.0 * (a * a + b * b) for a, b in self.pairs)
        )

    def scaled(self, factor: float) -> "ConjInvariantSpectrum":
        if factor <= 0:
            raise InputError("scaling factor must be positive")
        return ConjInvariantSpectrum(
            reals=tuple(factor * r for r in self.reals),
            pairs=tuple((factor * a, factor * b) for a, b in self.pairs),
        )

    def char_poly(self) -> np.ndarray:
        return poly_from_spectrum(self.reals, self.pairs)

    def as_complex(self) -> list[complex]:
        out = [complex(r) for r in self.reals]
        for a, b in self.pairs:
            out.extend([complex(a, b), complex(a, -b)])
        return out

    def describe(self) -> list[str]:
        out = [repr(float(r)) for r in self.reals]
        for a, b in self.pairs:
            out.append(f"{float(a)!r}+-{float(b)!r}i")
        return out


def nilpotency_norms(a, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Both nilpotency checks and their bounds: ||A^n||_F against a bound in
    ||A||_F^n, and the largest Schur diagonal magnitude.  ``is_nilpotent``
    requires both.

    The diagonal bound carries a 1/n exponent because computed eigenvalues
    of a defective zero of index k are only accurate to roundoff^(1/k); a
    flat bound would reject honestly nilpotent matrices of high index.
    The power-norm check remains the sharp one.
    """
    a = as_matrix(a)
    n = require_square(a)
    power = np.linalg.matrix_power(a, n)
    power_norm = fro(power)
    power_bound = NILPOTENT_NORM_RTOL * max(1.0, fro(a)) ** n
    diag_max = float(np.max(np.abs(np.diag(real_schur(a).quasi_triangular))))
    diag_bound = NILPOTENT_NORM_RTOL ** (1.0 / n) * max(1.0, fro(a))
    return {
        "power_norm": power_norm,
        "power_bound": power_bound,
        "schur_diag_max": diag_max,
        "schur_diag_bound": diag_bound,
        "is_nilpotent": bool(power_norm <= power_bound and diag_max <= diag_bound),
    }


def is_nilpotent(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    return nilpotency_norms(a, tol)["is_nilpotent"]


def nilpotent_nearby(
    a,
    spectrum: ConjInvariantSpectrum,
    eps: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Matrix M with spec(M) = spectrum and ||M - A||^2 <= sum |lambda_i|^2,
    for nilpotent A.

    Works on the real Schur form of A (strictly upper triangular since all
    eigenvalues are zero): real targets replace 1x1 diagonal zeros, and
    each conjugate pair a +- b*i rewrites one 2x2 diagonal block keyed on
    its existing superdiagonal entry x:

        -b <= x < 0   ->  [[a, -b], [b, a]]
        0 <= x <= b   ->  [[a, b], [-b, a]]
        |x| > b       ->  [[a, x], [-b^2/x, a]]

    Pairs take the lowest-index adjacent diagonal positions, reals fill
    the rest in the order given; no Schur reordering is performed.
    """
    a = as_matrix(a)
    n = require_square(a)
    norms = nilpotency_norms(a, tol)
    if not norms["is_nilpotent"]:
        raise InputError(
            "matrix is not nilpotent within tolerance "
            f"(||A^n|| = {norms['power_norm']:.3e}, "
            f"max Schur diagonal = {norms['schur_diag_max']:.3e})"
        )
    if spectrum.size != n:
        raise InputError(f"spectrum has {spectrum.size} values, matrix has {n}")
    if 2 * len(spectrum.pairs) > n:
        raise InputError(
            "not enough adjacent diagonal positions for the conjugate pairs"
        )
    ssq = spectrum.sum_squares()
    if eps is not None and not ssq < eps * eps:
        raise InputError(
            f"sum of squared target moduli {ssq:.3e} is not below eps^2"
        )
    if not spectrum.pairs and all(r == 0.0 for r in spectrum.reals):
        return a.copy()

    schur = real_schur(a)
    t = schur.quasi_triangular.copy()
    t[np.tril_indices(n)] = 0.0  # residue of the nilpotency tolerance
    t_new = t.copy()
    pos = 0
    for re_part, im_part in spectrum.pairs:
        i = pos
        pos += 2
        x = t_new[i, i + 1]
        t_new[i, i] = t_new[i + 1, i + 1] = re_part
        if -im_part <= x < 0.0:
            t_new[i, i + 1] = -im_part
            t_new[i + 1, i] = im_part
        elif 0.0 <= x <= im_part:
            t_new[i, i + 1] = im_part
            t_new[i + 1, i] = -im_part
        else:
            t_new[i + 1, i] = -(im_part * im_part) / x
    for r in spectrum.reals:
        t_new[pos, pos] = r
        pos += 1

    if fro(t_new - t) ** 2 > ssq + 1e-9:
        raise InternalCheckError(
            "block rewrite exceeded the guaranteed distance bound"
        )
    return schur.orthogonal @ t_new @ schur.orthogonal.T


@dataclass(eq=False)
class Evidence:
    """One realized target inside a certificate."""

    target_kind: str
    target: object
    ok: bool
    residual: float | None = None
    matrix: np.ndarray | None = None
    achieved: object = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "target_kind": self.target_kind,
            "target": self.target,
            "ok": self.ok,
            "residual": self.residual,
            "matrix": None if self.matrix is None else self.matrix.tolist(),
            "achieved": (
                list(self.achieved)
                if isinstance(self.achieved, (tuple, list))
                else self.achieved
            ),
            "detail": self.detail,
        }


@dataclass(eq=False)
class Certificate:
    """Hypothesis verification plus sampled realizations for one pattern."""

    kind: str
    pattern: SignPattern
    witness: np.ndarray
    hypothesis: dict
    nssp_report: StrongPropertyReport | None
    evidence: tuple[Evidence, ...]

    @property
    def complete(self) -> bool:
        return all(e.ok for e in self.evidence)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pattern": self.pattern.to_lines(),
            "witness": self.witness.tolist(),
            "hypothesis": self.hypothesis,
            "nssp_report": None if self.nssp_report is None else self.nssp_report.as_dict(),
            "evidence": [e.as_dict() for e in self.evidence],
            "verdict": "complete" if self.complete else "incomplete",
        }


def _certify_hypothesis(
    p: SignPattern, a: np.ndarray, tol: Tolerances, require_nilpotent: bool
):
    """Check the witness: its size, its class and, when required, that it
    is nilpotent.  Returns the nilpotency norms, or None when not
    required."""
    if a.shape[0] != p.n:
        raise HypothesisFailure(
            f"witness size {a.shape[0]} does not match pattern size {p.n}"
        )
    if not matrix_in_sign_class(a, p, tol):
        raise HypothesisFailure("witness matrix is not in the sign class")
    norms = nilpotency_norms(a, tol) if require_nilpotent else None
    if require_nilpotent and not norms["is_nilpotent"]:
        raise HypothesisFailure(
            "witness matrix is not nilpotent within tolerance", details=norms
        )
    return norms


def _nssp_hypothesis(p: SignPattern, a: np.ndarray, tol: Tolerances) -> StrongPropertyReport:
    """The witness's nSSP report; a witness without the nSSP fails the
    hypothesis."""
    report = verify_nssp(a, tol, pattern=p)
    if not report.holds:
        raise HypothesisFailure(
            "witness matrix does not have the nSSP",
            details={"nullspace_dim": report.nullspace_dim},
        )
    return report


def _evidence(target_kind: str, target, run) -> Evidence:
    """One evidence entry for ``target``: ``run()`` returns (matrix,
    residual, achieved, detail), and the entry holds when ``detail`` is
    empty.  A :class:`NoConvergence` or :class:`SurjectivityFailure`
    raised by ``run()`` records a failed entry with its message."""
    try:
        matrix, residual, achieved, detail = run()
    except (NoConvergence, SurjectivityFailure) as exc:
        return Evidence(target_kind, target, ok=False, detail=str(exc))
    return Evidence(target_kind, target, not detail, residual, matrix, achieved, detail)


def certify_spectrally_arbitrary(
    p: SignPattern,
    a,
    targets,
    tol: Tolerances = DEFAULT_TOL,
) -> Certificate:
    """Certificate that the pattern realizes each sampled spectrum.

    Hypothesis (checked, failure raises): the witness lies in the class,
    is nilpotent, and has the nSSP.  Each target spectrum is scaled down
    by the smallest power of two k that brings it within twice the trust
    radius (:func:`realize_similar` walks a target beyond the radius),
    planted onto the witness's Schur form, realized in the class, and
    scaled back (positive scaling preserves signs); the evidence records
    the characteristic-polynomial residual at full scale, where
    coefficient j carries the solve's error times k^j, so the smallest k
    that solves is the one to use.  A failed solve moves on to 2k, up to
    ``_CERT_SCALE_ATTEMPTS`` values of k.
    """
    a = as_matrix(a, "witness matrix")
    require_square(a, "witness matrix")
    targets = list(targets)
    if not targets:
        raise InputError("no target spectra: a certificate needs evidence")
    norms = _certify_hypothesis(p, a, tol, require_nilpotent=True)
    report = _nssp_hypothesis(p, a, tol)
    solve_tol = replace(tol, newton_tol=min(tol.newton_tol, _CERT_NEWTON_TOL))
    trust = default_trust_radius(a)
    limit = 2.0 * trust
    evidence = []
    for target in targets:
        if not isinstance(target, ConjInvariantSpectrum):
            target = ConjInvariantSpectrum.from_values(target)
        if target.size != p.n:
            raise InputError(
                f"target spectrum has {target.size} values, pattern has {p.n}"
            )
        # the smallest power of two k with radius / k < limit, then larger
        # ones to pull the target deeper into the neighborhood
        radius = math.sqrt(target.sum_squares())
        k = 2 ** max(0, math.frexp(radius / limit)[1])
        if k > 1 and radius / (k // 2) < limit:
            k //= 2

        def run():
            for i in range(_CERT_SCALE_ATTEMPTS):
                m = nilpotent_nearby(a, target.scaled(1.0 / (k << i)), tol=tol)
                try:
                    res = realize_similar(a, p, m, solve_tol, base_report=report)
                    break
                except NoConvergence:
                    if i == _CERT_SCALE_ATTEMPTS - 1:
                        raise
            # k is a power of two, so the scaled realization keeps its signs
            # and its class
            realized = float(k << i) * res.matrix
            residual = float(np.max(np.abs(char_poly(realized) - target.char_poly())))
            achieved = [str(v) for v in np.round(real_schur(realized).eigenvalues(), 12)]
            return realized, residual, achieved, (
                "" if residual <= CHAR_POLY_RESIDUAL_TOL else
                "characteristic polynomial residual above tolerance"
            )

        evidence.append(_evidence("spectrum", target.describe(), run))
    return Certificate(
        kind="spectrally_arbitrary",
        pattern=p,
        witness=a,
        hypothesis={"nilpotency": norms, "scaling": "powers of two"},
        nssp_report=report,
        evidence=tuple(evidence),
    )


def raise_nilpotent_index(
    a,
    p: SignPattern,
    tol: Tolerances = DEFAULT_TOL,
    delta: float | None = None,
) -> np.ndarray:
    """Nilpotent matrix of full index n in the class, near the witness.

    Fills the small superdiagonal entries of the witness's strictly upper
    triangular Schur form with ``delta`` (a strictly upper matrix with a
    nonzero superdiagonal is nilpotent of index n), then realizes the
    perturbed form in the class in one hop of :func:`_homotopy`, which
    halves ``delta`` (finite and positive; default 0.01 * (1 + ||A||_F))
    when the solve fails.  A realized matrix without index n raises
    :class:`NoConvergence` at once: a smaller ``delta`` only shrinks the
    product of the superdiagonal, the (0, n-1) entry of M^(n-1).  Returns
    the witness itself when it already has index n.
    """
    a = as_matrix(a, "witness matrix")
    n = require_square(a, "witness matrix")
    d = 0.01 * (1.0 + fro(a)) if delta is None else float(delta)
    if not (math.isfinite(d) and d > 0.0):
        raise InputError(f"delta must be finite and positive, got {d!r}")
    _certify_hypothesis(p, a, tol, require_nilpotent=True)

    def has_index_n(m: np.ndarray) -> bool:
        if n == 1:
            return True
        penult = np.linalg.matrix_power(m, n - 1)
        return fro(penult) > 1e-6 * max(1.0, fro(m) ** (n - 1))

    # already full index: nothing to raise (no nSSP needed on this path)
    if has_index_n(a):
        return a.copy()
    report = _nssp_hypothesis(p, a, tol)

    schur = real_schur(a)
    t = schur.quasi_triangular.copy()
    t[np.tril_indices(n)] = 0.0

    def plan(_cur, size):
        t_new = t.copy()
        for i in range(n - 1):
            if abs(t_new[i, i + 1]) <= size:
                t_new[i, i + 1] = size
        return schur.orthogonal @ t_new @ schur.orthogonal.T, True

    a_prime = _homotopy(similarity_map(a, p), report, d, plan, tol, "index raise").matrix
    power_n = fro(np.linalg.matrix_power(a_prime, n))
    if has_index_n(a_prime) and power_n <= NILPOTENT_NORM_RTOL * max(1.0, fro(a_prime) ** n):
        return a_prime
    raise NoConvergence("index check failure: realized matrix is not nilpotent of index n")


def _allocate_perturbations(
    p_target: int, q_target: int, pairs_avail: int, zeros_avail: int
) -> tuple[int, int, int, int]:
    """(pairs_pos, zeros_pos, pairs_neg, zeros_neg): how many conjugate
    pairs and zero eigenvalues to push into each half-plane to produce
    ``p_target`` positive and ``q_target`` negative real parts.

    As many zeros as the target allows are shifted, and pairs make up the
    rest: an unshifted pure-imaginary pair stays simple, while an unshifted
    zero of a Jordan block splits by about the square root of roundoff
    once realized, which can exceed the eigenvalue-zero threshold.
    """
    for zeros in range(min(p_target + q_target, zeros_avail), -1, -1):
        for zeros_pos in range(min(p_target, zeros), max(zeros - q_target, 0) - 1, -1):
            zeros_neg = zeros - zeros_pos
            pairs_pos, odd_pos = divmod(p_target - zeros_pos, 2)
            pairs_neg, odd_neg = divmod(q_target - zeros_neg, 2)
            if not (odd_pos or odd_neg) and pairs_pos + pairs_neg <= pairs_avail:
                return pairs_pos, zeros_pos, pairs_neg, zeros_neg
    raise InternalCheckError("inertia target allocation infeasible despite hypothesis")


def certify_inertially_arbitrary(
    p: SignPattern,
    a,
    tol: Tolerances = DEFAULT_TOL,
) -> Certificate:
    """Certificate that the pattern realizes every inertia (p, q, n-p-q).

    Hypothesis: every eigenvalue of the witness has zero real part, at
    least two are exactly zero, and the witness has the nSSP.  For each
    target, as many zero eigenvalues as the target allows are shifted into
    the wanted half-planes (defective slots first, a diagonal shift of their
    Schur slots), and conjugate pure-imaginary pairs make up the remainder
    (a diagonal shift of their 2x2 Schur blocks) by 0.5 * trust / sqrt(n),
    in one hop of :func:`_homotopy` whose halving halves the shift.
    """
    a = as_matrix(a, "witness matrix")
    n = require_square(a, "witness matrix")
    _certify_hypothesis(p, a, tol, require_nilpotent=False)
    refined = rin(a, tol)
    n_pos, n_neg, n_z, _ = refined
    if n_pos or n_neg:
        raise HypothesisFailure(
            f"witness has eigenvalues with nonzero real part: rin = {refined}"
        )
    if n_z < 2:
        raise HypothesisFailure(
            f"witness needs at least two zero eigenvalues: rin = {refined}"
        )
    report = _nssp_hypothesis(p, a, tol)

    # Classify diagonal blocks by eigenvalue content, with rin's zero test on
    # the same Schur form (so the counts are rin's): a 2x2 block whose two
    # eigenvalues both vanish is an unsplit defective zero and contributes
    # two independently shiftable diagonal slots.  Defective slots are
    # listed first so that shifts break those blocks up before touching
    # pristine zeros (an unshifted defective block is the one configuration
    # whose zero eigenvalues are numerically fragile).
    schur = real_schur(a)
    thr = eig_zero_threshold(a, tol)
    pair_blocks: list[int] = []
    defective_slots: list[int] = []
    simple_slots: list[int] = []
    for start, size in schur.diagonal_blocks():
        if size == 1:
            simple_slots.append(start)
            continue
        # LAPACK's standardized 2x2 blocks have disc < 0
        mean, disc = schur.block_mean_disc(start)
        if abs(complex(mean, math.sqrt(-disc))) <= thr:
            defective_slots.extend([start, start + 1])
        else:
            pair_blocks.append(start)
    zero_slots = defective_slots + simple_slots

    f = similarity_map(a, p)
    trust = default_trust_radius(a)
    evidence = []
    for p_t in range(n + 1):
        for q_t in range(n + 1 - p_t):
            target = (p_t, q_t, n - p_t - q_t)
            pairs_pos, zeros_pos, pairs_neg, zeros_neg = _allocate_perturbations(
                p_t, q_t, len(pair_blocks), len(zero_slots)
            )

            def plan(_cur, trust):
                delta = 0.5 * trust / math.sqrt(n)
                shift = np.zeros((n, n))
                for start in pair_blocks[:pairs_pos]:
                    shift[start, start] = shift[start + 1, start + 1] = delta
                for start in pair_blocks[pairs_pos : pairs_pos + pairs_neg]:
                    shift[start, start] = shift[start + 1, start + 1] = -delta
                for slot in zero_slots[:zeros_pos]:
                    shift[slot, slot] = delta
                for slot in zero_slots[zeros_pos : zeros_pos + zeros_neg]:
                    shift[slot, slot] = -delta
                # a lone kept zero goes to exactly 0, off the zero threshold
                # (two at 0 would form a Jordan block that splits again)
                kept = zero_slots[zeros_pos + zeros_neg :]
                if len(kept) == 1:
                    shift[kept[0], kept[0]] = -schur.quasi_triangular[kept[0], kept[0]]
                return schur.orthogonal @ (schur.quasi_triangular + shift) @ schur.orthogonal.T, True

            def run():
                res = _homotopy(f, report, trust, plan, tol, "inertia shift")
                achieved = inertia(res.matrix, tol)
                return res.matrix, res.final_residual, achieved, (
                    "" if achieved == target else f"achieved inertia {achieved}"
                )

            evidence.append(_evidence("inertia", list(target), run))
    return Certificate(
        kind="inertially_arbitrary",
        pattern=p,
        witness=a,
        hypothesis={"rin": list(refined)},
        nssp_report=report,
        evidence=tuple(evidence),
    )


def nj_jacobian_diagnostic(
    a,
    entry_set,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, bool]:
    """Jacobian of the non-leading characteristic-polynomial coefficients
    with respect to n chosen nonzero entries of a nilpotent matrix, at
    zero perturbation, plus its invertibility verdict.

    Row m holds the gradient of coefficient c_m.  Derivatives come from
    the adjugate polynomial of the Faddeev-LeVerrier recursion
    (d det(xI - A - tE_ij)/dt = -adj(xI - A)[j, i]), so structurally zero
    rows come out exactly zero.
    """
    a = as_matrix(a)
    n = require_square(a)
    cells = [(int(i), int(j)) for i, j in entry_set]
    if len(cells) != n:
        raise InputError(f"entry set must contain exactly {n} cells")
    thr = entry_zero_threshold(a)
    for i, j in cells:
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"cell ({i}, {j}) is out of range")
        if abs(a[i, j]) <= thr:
            raise InputError(f"cell ({i}, {j}) lies outside the pattern support")
    if not is_nilpotent(a, tol):
        raise InputError("matrix is not nilpotent within tolerance")
    _coeffs, adj_coeffs = char_poly_faddeev(a)
    jac = np.zeros((n, n))
    for t, (i, j) in enumerate(cells):
        for m in range(n):
            jac[m, t] = -adj_coeffs[n - 1 - m][j, i]
    return jac, rank(jac, tol) == n
