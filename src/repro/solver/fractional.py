"""Linear-fractional programming via the Charnes–Cooper transformation.

The cost policies of Section 4.2 maximize a ratio of linear functions of the
allocation, e.g. total effective throughput divided by total dollar cost.
Such linear-fractional programs reduce to ordinary LPs: substitute
``y = x * s`` and ``s = 1 / (d·x + d0)``, maximize ``c·y + c0*s`` subject to
``d·y + d0*s == 1``, the scaled original constraints, and ``s >= 0``.

Like :class:`~repro.solver.lp.LinearProgram`, fractional programs are
**mutable** so policy sessions can keep one alive across allocation
recomputations: ``add_*`` constraint methods return handles usable with
:meth:`~FractionalProgram.remove_constraint`,
:meth:`~FractionalProgram.add_terms_to_constraint` and
:meth:`~FractionalProgram.remove_terms_from_constraint`; variables can be
deactivated and recycled with :meth:`~FractionalProgram.release_variable`;
and tag scopes (:meth:`~FractionalProgram.begin_tag` /
:meth:`~FractionalProgram.clear_tag`) let a session tear down just the
objective-dependent parts each round.

The Charnes–Cooper reduction is **persistent**: the reduced
:class:`~repro.solver.lp.LinearProgram` is built once on the first solve and
every later mutation of the fractional program is mirrored into it as a
targeted edit (a constraint add/remove/term edit becomes the scaled row edit,
a variable-bound change becomes a coefficient update on the two ``y``/``s``
bound-link rows).  Re-solves therefore skip rebuilding the CC LP and inherit
the warm-started HiGHS backend of the inner program — the same incremental
path the pure-LP policies use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InfeasibleError, SolverError
from repro.solver.lp import (
    LinearExpression,
    LinearProgram,
    Variable,
    _columnar_rows,
    _expression_terms,
    _Row,
)

__all__ = ["FractionalProgram", "FractionalSolution"]


@dataclass
class FractionalSolution:
    """Solution of a linear-fractional program in the original variable space."""

    values: np.ndarray
    objective_value: float
    scale: float

    def value_of(self, expression: "Variable | LinearExpression") -> float:
        if isinstance(expression, Variable):
            return float(self.values[expression.index])
        return expression.value(self.values)


class _RatioConstraint(_Row):
    """One ratio-program constraint ``a·x + constant (sense) rhs`` over a stored row."""

    __slots__ = ("constant", "sense", "rhs")

    def __init__(
        self, indices: np.ndarray, values: np.ndarray, constant: float, sense: str, rhs: float
    ) -> None:
        super().__init__(indices, values)
        self.constant = constant
        self.sense = sense
        self.rhs = rhs


class FractionalProgram:
    """Maximize ``(numerator) / (denominator)`` over a polytope.

    Variables are continuous with finite lower/upper bounds (allocations live
    in ``[0, 1]``).  The denominator must be strictly positive over the
    feasible region; the Charnes–Cooper scale variable enforces this at the
    optimum.
    """

    def __init__(self, name: str = "fractional") -> None:
        self.name = name
        self._lower: List[float] = []
        self._upper: List[float] = []
        self._names: List[str] = []
        self._constraints: Dict[int, _RatioConstraint] = {}
        self._next_constraint_id = 0
        #: Ratio objective as ``(indices, values, constant)`` term arrays.
        self._numerator: Optional[Tuple[np.ndarray, np.ndarray, float]] = None
        self._denominator: Optional[Tuple[np.ndarray, np.ndarray, float]] = None
        self._free_variables: List[int] = []
        self._active_tag: Optional[str] = None
        self._tagged_constraints: Dict[str, List[int]] = {}
        self._tagged_variables: Dict[str, List[int]] = {}
        # Persistent Charnes–Cooper mirror: built lazily on the first solve,
        # then kept in sync by targeted edits from every mutation below.
        self._cc_lp: Optional[LinearProgram] = None
        self._cc_scaled: Dict[int, Variable] = {}
        self._cc_scale: Optional[Variable] = None
        self._cc_bounds: Dict[int, Tuple[int, int]] = {}
        self._cc_rows: Dict[int, int] = {}
        self._cc_denominator: Optional[int] = None
        #: Cached ``original column -> y column`` map (grown on demand).
        self._cc_map: Optional[np.ndarray] = None

    # -- variables --------------------------------------------------------------
    def num_variables(self) -> int:
        return len(self._lower)

    def add_variable(self, name: Optional[str] = None, lower: float = 0.0, upper: float = 1.0) -> Variable:
        if not math.isfinite(lower) or not math.isfinite(upper):
            raise SolverError(f"{self.name}: fractional programs require finite variable bounds")
        if self._free_variables:
            index = self._free_variables.pop()
            self._lower[index] = float(lower)
            self._upper[index] = float(upper)
            self._names[index] = name if name is not None else f"x{index}"
        else:
            index = len(self._lower)
            self._lower.append(float(lower))
            self._upper.append(float(upper))
            self._names.append(name if name is not None else f"x{index}")
        if self._active_tag is not None:
            self._tagged_variables.setdefault(self._active_tag, []).append(index)
        if self._cc_lp is not None:
            if index in self._cc_scaled:
                self._cc_sync_variable_bounds(index)
            else:
                self._cc_scaled[index] = self._cc_lp.add_variable(name=f"y{index}", lower=0.0)
                self._cc_add_bound_links(index)
        return Variable(index=index, name=self._names[index])

    def add_variables(self, count: int, name_prefix: str = "x", lower: float = 0.0, upper: float = 1.0) -> List[Variable]:
        return [self.add_variable(f"{name_prefix}{i}", lower, upper) for i in range(count)]

    def add_variables_from_arrays(
        self,
        count: int,
        lower: "float | np.ndarray" = 0.0,
        upper: "float | np.ndarray | None" = 1.0,
        integer: bool = False,
        name: str = "x",
    ) -> np.ndarray:
        """Bulk-allocate variables; returns their column indices.

        Mirrors :meth:`LinearProgram.add_variables_from_arrays` (``integer``
        is accepted for signature parity but must stay ``False``; fractional
        programs are continuous).  Bounds must be finite.
        """
        if integer:
            raise SolverError(f"{self.name}: fractional programs have no integer variables")
        count = int(count)
        lower_arr = np.broadcast_to(np.asarray(lower, dtype=float), (count,))
        if upper is None:
            raise SolverError(f"{self.name}: fractional programs require finite variable bounds")
        upper_arr = np.broadcast_to(np.asarray(upper, dtype=float), (count,))
        if count and not (np.isfinite(lower_arr).all() and np.isfinite(upper_arr).all()):
            raise SolverError(f"{self.name}: fractional programs require finite variable bounds")
        indices = np.empty(count, dtype=np.int64)
        recycled = min(len(self._free_variables), count)
        for position in range(recycled):
            index = self._free_variables.pop()
            indices[position] = index
            self._lower[index] = float(lower_arr[position])
            self._upper[index] = float(upper_arr[position])
            self._names[index] = name
        grown = count - recycled
        if grown > 0:
            base = len(self._lower)
            indices[recycled:] = np.arange(base, base + grown, dtype=np.int64)
            self._lower.extend(lower_arr[recycled:].tolist())
            self._upper.extend(upper_arr[recycled:].tolist())
            self._names.extend([name] * grown)
        if self._active_tag is not None:
            self._tagged_variables.setdefault(self._active_tag, []).extend(indices.tolist())
        if self._cc_lp is not None:
            for index in indices.tolist():
                if index in self._cc_scaled:
                    self._cc_sync_variable_bounds(index)
                else:
                    self._cc_scaled[index] = self._cc_lp.add_variable(name=f"y{index}", lower=0.0)
                    self._cc_add_bound_links(index)
        return indices

    def set_variable_bounds_from_arrays(
        self, indices: np.ndarray, lower: "float | np.ndarray", upper: "float | np.ndarray"
    ) -> None:
        """Replace many variables' (finite) bounds at once."""
        indices = np.asarray(indices, dtype=np.int64)
        lower_arr = np.broadcast_to(np.asarray(lower, dtype=float), indices.shape)
        upper_arr = np.broadcast_to(np.asarray(upper, dtype=float), indices.shape)
        if len(indices) and not (np.isfinite(lower_arr).all() and np.isfinite(upper_arr).all()):
            raise SolverError(f"{self.name}: fractional programs require finite variable bounds")
        for index, low, high in zip(indices.tolist(), lower_arr.tolist(), upper_arr.tolist()):
            self._lower[index] = low
            self._upper[index] = high
            if self._cc_lp is not None:
                self._cc_sync_variable_bounds(index)

    def set_variable_bounds(self, variable: "Variable | int", lower: float, upper: float) -> None:
        """Replace one variable's (finite) bounds."""
        if not math.isfinite(lower) or not math.isfinite(upper):
            raise SolverError(f"{self.name}: fractional programs require finite variable bounds")
        index = variable.index if isinstance(variable, Variable) else int(variable)
        self._lower[index] = float(lower)
        self._upper[index] = float(upper)
        if self._cc_lp is not None:
            self._cc_sync_variable_bounds(index)

    def fix_variable(self, variable: "Variable | int", value: float = 0.0) -> None:
        """Pin a variable to a single value."""
        self.set_variable_bounds(variable, value, value)

    def release_variable(self, variable: "Variable | int") -> None:
        """Deactivate a variable (fixed to zero) and recycle its index.

        As with :meth:`LinearProgram.release_variable`, the caller must scrub
        the variable's coefficients from remaining constraints and the ratio
        objective before releasing.
        """
        index = variable.index if isinstance(variable, Variable) else int(variable)
        self.fix_variable(index, 0.0)
        self._free_variables.append(index)

    # -- tag scopes --------------------------------------------------------------
    def begin_tag(self, tag: str) -> None:
        """Tag every variable/constraint created until :meth:`end_tag`."""
        if self._active_tag is not None:
            raise SolverError(f"{self.name}: tag scope {self._active_tag!r} already open")
        self._active_tag = tag

    def end_tag(self) -> None:
        self._active_tag = None

    def clear_tag(self, tag: str) -> None:
        """Remove tagged constraints and release tagged variables."""
        for constraint_id in self._tagged_constraints.pop(tag, []):
            self.remove_constraint(constraint_id)
        for index in self._tagged_variables.pop(tag, []):
            self.release_variable(index)

    # -- constraints ------------------------------------------------------------
    def _append_constraint(self, constraint: _RatioConstraint) -> int:
        constraint_id = self._next_constraint_id
        self._next_constraint_id += 1
        self._constraints[constraint_id] = constraint
        if self._active_tag is not None:
            self._tagged_constraints.setdefault(self._active_tag, []).append(constraint_id)
        if self._cc_lp is not None:
            self._cc_mirror_constraint(constraint_id, constraint)
        return constraint_id

    def add_less_equal(self, expression: "Mapping[int, float] | LinearExpression", rhs: float) -> int:
        return self._append_constraint(
            _RatioConstraint(*_expression_terms(expression), "<=", float(rhs))
        )

    def add_greater_equal(self, expression: "Mapping[int, float] | LinearExpression", rhs: float) -> int:
        return self._append_constraint(
            _RatioConstraint(*_expression_terms(expression), ">=", float(rhs))
        )

    def remove_constraint(self, handle: int) -> None:
        """Delete one constraint by handle (no-op if already removed)."""
        if self._constraints.pop(handle, None) is not None:
            row = self._cc_rows.pop(handle, None)
            if row is not None and self._cc_lp is not None:
                self._cc_lp.remove_constraint(row)

    def add_terms_to_constraint(self, handle: int, terms: Mapping[int, float]) -> None:
        """Accumulate coefficients onto an existing constraint."""
        indices, values, _constant = _expression_terms(terms)
        self.add_terms_to_constraint_from_arrays(handle, indices, values)

    def add_terms_to_constraint_from_arrays(
        self, handle: int, indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Columnar term accumulation (see the LP twin), mirrored into the live CC row."""
        indices = np.asarray(indices, dtype=np.int64)
        self._require(handle).add_terms(indices, values)
        if self._cc_lp is not None and handle in self._cc_rows:
            self._cc_lp.add_terms_to_constraint_from_arrays(
                self._cc_rows[handle], self._cc_column_map()[indices], values
            )

    def remove_terms_from_constraint(self, handle: int, indices: Iterable[int]) -> None:
        """Drop the given variables' coefficients from an existing constraint."""
        indices = [int(index) for index in indices]
        self._require(handle).remove_columns(indices)
        if self._cc_lp is not None and handle in self._cc_rows:
            self._cc_lp.remove_terms_from_constraint(
                self._cc_rows[handle],
                [self._cc_scaled[index].index for index in indices],
            )

    def add_constraints_from_arrays(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        coeffs: np.ndarray,
        lower: "float | np.ndarray",
        upper: "float | np.ndarray",
    ) -> np.ndarray:
        """Bulk-add constraints from a columnar triplet (see the LP twin).

        Row bounds select the sense: ``(-inf, u)`` adds ``<= u``, ``(l, inf)``
        adds ``>= l`` and ``(b, b)`` adds ``== b``; general two-sided rows are
        not expressible in a ratio program.
        """
        rows, cols, coeffs, lower_arr, upper_arr, boundaries, num_rows = _columnar_rows(
            self.name, rows, cols, coeffs, lower, upper
        )
        handles = np.empty(num_rows, dtype=np.int64)
        lows = np.broadcast_to(lower_arr, (num_rows,)).tolist()
        highs = np.broadcast_to(upper_arr, (num_rows,)).tolist()
        for ordinal, (low, high) in enumerate(zip(lows, highs)):
            if math.isinf(low) and low < 0 and math.isfinite(high):
                sense, rhs = "<=", high
            elif math.isfinite(low) and math.isinf(high) and high > 0:
                sense, rhs = ">=", low
            elif math.isfinite(low) and low == high:
                sense, rhs = "==", low
            else:
                raise SolverError(
                    f"{self.name}: row bounds ({low}, {high}) do not map to a single sense"
                )
            start, end = boundaries[ordinal], boundaries[ordinal + 1]
            handles[ordinal] = self._append_constraint(
                _RatioConstraint(cols[start:end], coeffs[start:end], 0.0, sense, rhs)
            )
        return handles

    def set_constraint_bounds(
        self, handle: int, lower: Optional[float] = None, upper: Optional[float] = None
    ) -> None:
        """Update a one-sided constraint's right-hand side.

        Only the side matching the constraint's sense may be updated (a
        ``>=`` constraint accepts ``lower``, ``<=`` accepts ``upper``, and
        ``==`` accepts either one alone or both equal).
        """
        constraint = self._require(handle)
        old_rhs = constraint.rhs
        if constraint.sense == ">=":
            if upper is not None or lower is None:
                raise SolverError(f"{self.name}: '>=' constraint only has a lower bound")
            constraint.rhs = float(lower)
        elif constraint.sense == "<=":
            if lower is not None or upper is None:
                raise SolverError(f"{self.name}: '<=' constraint only has an upper bound")
            constraint.rhs = float(upper)
        else:
            values = {v for v in (lower, upper) if v is not None}
            if len(values) != 1:
                raise SolverError(f"{self.name}: '==' constraint requires one consistent bound")
            constraint.rhs = float(values.pop())
        # In the reduction the rhs lives in the scale variable's coefficient
        # (a0 - rhs), so a rhs move is a single-term edit on the mirrored row.
        if self._cc_lp is not None and handle in self._cc_rows and constraint.rhs != old_rhs:
            self._cc_lp.add_terms_to_constraint(
                self._cc_rows[handle], {self._cc_scale.index: old_rhs - constraint.rhs}
            )

    def set_constraint_bounds_from_arrays(
        self,
        handles: "Iterable[int] | np.ndarray",
        lower: "float | np.ndarray | None" = None,
        upper: "float | np.ndarray | None" = None,
    ) -> None:
        """Bulk right-hand-side update mirroring :meth:`LinearProgram.set_constraint_bounds_from_arrays`.

        ``lower``/``upper`` broadcast against ``handles`` and obey the same
        sense rules as :meth:`set_constraint_bounds` (a ``>=`` row accepts
        ``lower``, ``<=`` accepts ``upper``).  Each move is mirrored into the
        live Charnes–Cooper LP as a single-term scale-column edit, so a sweep
        over many rows stays warm-start friendly.
        """
        handles = np.asarray(list(handles) if not isinstance(handles, np.ndarray) else handles, dtype=np.int64)
        lower_arr = (
            None
            if lower is None
            else np.broadcast_to(np.asarray(lower, dtype=float), handles.shape)
        )
        upper_arr = (
            None
            if upper is None
            else np.broadcast_to(np.asarray(upper, dtype=float), handles.shape)
        )
        for position, handle in enumerate(handles.tolist()):
            self.set_constraint_bounds(
                handle,
                lower=None if lower_arr is None else float(lower_arr[position]),
                upper=None if upper_arr is None else float(upper_arr[position]),
            )

    def _require(self, handle: int) -> _RatioConstraint:
        try:
            return self._constraints[handle]
        except KeyError:
            raise SolverError(f"{self.name}: unknown constraint handle {handle}") from None

    def num_constraints(self) -> int:
        return len(self._constraints)

    # -- objective ----------------------------------------------------------------
    def set_ratio_objective(
        self,
        numerator: "Mapping[int, float] | LinearExpression",
        denominator: "Mapping[int, float] | LinearExpression",
    ) -> None:
        """Maximize ``numerator / denominator``."""
        self._numerator = _expression_terms(numerator)
        self._denominator = _expression_terms(denominator)

    # -- the persistent Charnes–Cooper mirror ---------------------------------------
    @property
    def charnes_cooper_program(self) -> Optional[LinearProgram]:
        """The live reduced LP (``None`` until the first solve builds it)."""
        return self._cc_lp

    def _cc_add_bound_links(self, index: int) -> None:
        """Bounds ``lower <= x <= upper`` become ``lower*s <= y <= upper*s``."""
        y = self._cc_scaled[index].index
        s = self._cc_scale.index
        upper_handle = self._cc_lp.add_less_equal({y: 1.0, s: -self._upper[index]}, 0.0)
        lower_handle = self._cc_lp.add_greater_equal({y: 1.0, s: -self._lower[index]}, 0.0)
        self._cc_bounds[index] = (upper_handle, lower_handle)

    def _cc_sync_variable_bounds(self, index: int) -> None:
        y = self._cc_scaled[index].index
        s = self._cc_scale.index
        upper_handle, lower_handle = self._cc_bounds[index]
        self._cc_lp.set_constraint_coefficients(upper_handle, {y: 1.0, s: -self._upper[index]})
        self._cc_lp.set_constraint_coefficients(lower_handle, {y: 1.0, s: -self._lower[index]})

    def _cc_column_map(self) -> np.ndarray:
        """Cached ``original column -> y column`` index map (grows on demand).

        Stable to cache: ``y`` columns are never released, and a recycled
        original index reuses its existing ``y`` column.
        """
        num_original = len(self._lower)
        if self._cc_map is None or len(self._cc_map) < num_original:
            self._cc_map = np.fromiter(
                (self._cc_scaled[i].index for i in range(num_original)),
                dtype=np.int64,
                count=num_original,
            )
        return self._cc_map

    def _cc_mirror_constraint(self, handle: int, constraint: _RatioConstraint) -> None:
        """``a·x + a0 (sense) rhs`` becomes ``a·y + (a0 - rhs)*s (sense) 0``."""
        cols = np.append(self._cc_column_map()[constraint.indices], self._cc_scale.index)
        coeffs = np.append(constraint.values, constraint.constant - constraint.rhs)
        if constraint.sense == "<=":
            lower, upper = -math.inf, 0.0
        elif constraint.sense == ">=":
            lower, upper = 0.0, math.inf
        else:
            lower, upper = 0.0, 0.0
        row = int(
            self._cc_lp.add_constraints_from_arrays(
                np.zeros(len(cols), dtype=np.int64), cols, coeffs, [lower], [upper]
            )[0]
        )
        self._cc_rows[handle] = row

    def _build_cc(self) -> None:
        """Build the reduced LP once; later mutations arrive as edits."""
        self._cc_lp = LinearProgram(name=f"{self.name}-charnes-cooper")
        scaled = self._cc_lp.add_variables(len(self._lower), name_prefix="y", lower=0.0)
        self._cc_scaled = dict(enumerate(scaled))
        self._cc_scale = self._cc_lp.add_variable(name="s", lower=0.0)
        self._cc_bounds = {}
        for index in range(len(self._lower)):
            self._cc_add_bound_links(index)
        self._cc_rows = {}
        self._cc_map = None
        for handle, constraint in self._constraints.items():
            self._cc_mirror_constraint(handle, constraint)
        self._cc_denominator = None

    def _cc_sync_objective(self) -> None:
        """Refresh the normalisation row ``d·y + d0*s == 1`` and the objective."""
        s = self._cc_scale.index
        indices, values, constant = self._denominator
        cols = np.append(self._cc_column_map()[indices], s)
        coeffs = np.append(values, constant)
        if self._cc_denominator is None:
            self._cc_denominator = int(
                self._cc_lp.add_constraints_from_arrays(
                    np.zeros(len(cols), dtype=np.int64), cols, coeffs, [1.0], [1.0]
                )[0]
            )
        else:
            self._cc_lp.set_constraint_coefficients_from_arrays(
                self._cc_denominator, cols, coeffs
            )
        indices, values, constant = self._numerator
        self._cc_lp.set_objective_from_arrays(
            np.append(self._cc_column_map()[indices], s), np.append(values, constant), maximize=True
        )

    # -- solving -------------------------------------------------------------------
    def solve(self) -> FractionalSolution:
        """Solve via the (persistent) Charnes–Cooper LP and map back."""
        if self._numerator is None or self._denominator is None:
            raise SolverError(f"{self.name}: ratio objective not set")
        num_original = len(self._lower)
        if num_original == 0:
            raise SolverError(f"{self.name}: no variables")

        if self._cc_lp is None:
            self._build_cc()
        self._cc_sync_objective()

        solution = self._cc_lp.solve()
        scale = self._cc_scale
        scaled = self._cc_scaled
        scale_value = solution.value_of(scale)
        if scale_value <= 1e-12:
            raise InfeasibleError(
                f"{self.name}: Charnes–Cooper scale collapsed to zero "
                "(denominator is not strictly positive on the feasible set)"
            )
        original_values = np.array(
            [solution.value_of(scaled[i]) / scale_value for i in range(num_original)]
        )
        return FractionalSolution(
            values=original_values,
            objective_value=solution.objective_value,
            scale=scale_value,
        )
