"""Recursive systems of binary logistic regressions.

A system is an ordered collection of variables (one binary outcome, one
treatment, k binary mediators, optional covariates) together with one
hierarchical logistic equation per modelled response.  The ordering
convention follows the outcome-first layout used throughout the package:

    Y, W1, ..., Wk, X, C...

where W1 is the innermost mediator (adjacent to Y) and Wk the outermost
(adjacent to X).  Each equation may only use predictors that come strictly
later in this ordering, so the system corresponds to a DAG.

This module holds the structural pieces everything else builds on:

* ``VariableSpec`` / ``Term`` / ``SystemSpec`` describe the system,
* ``ParameterSet`` stores one coefficient per design column, as one
  read-only vector in the spec's ``flat_coords`` order, and evaluates
  linear predictors,
* ``ZeroMask`` is the coefficient-zeroing machinery that effect
  definitions are made of: zeroing a variable inside one equation removes
  its main effect and every interaction containing it.  A mask is a
  read-only boolean vector over its spec's ``flat_coords``, so applying it
  is one ``np.where``.  ``effects.component_mask`` maps each effect
  component (DE, IE/GIE, PSIE along a path) to its mask and caches it in
  ``SystemSpec.masks``, so each is built once per spec.

Categorical variables are dummy-coded against their first level, so a term
like ``X:W`` with a three-level X expands into the columns ``X{2,1}:W`` and
``X{3,1}:W``.  All containers are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

ROLES = ("outcome", "treatment", "mediator", "covariate")
KINDS = ("binary", "continuous", "categorical")


class ModelSpecError(ValueError):
    """An invalid system specification, parameter domain, or lookup."""


def _is(value, kind) -> bool:
    """Whether a value from outside the program (a file, an argument or a
    library call) is a ``kind``, or one of a tuple of kinds.  float means
    a number: a real that is no boolean, Python's or numpy's, since true
    and false are no numbers.  int means a whole number, so 2 and 2.0
    both are.  Any other kind means an instance of it."""
    if isinstance(kind, tuple):     # a loop, not any(): met once per datum
        for k in kind:
            if _is(value, k):
                return True
        return False
    if kind is not float and kind is not int:
        return isinstance(value, kind)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return (kind is float or isinstance(value, numbers.Integral)
            or _float(value).is_integer())


def _float(raw) -> float:
    """A number or the text of one as a float; nan for anything else (a
    boolean too) or a value too large, which makes the value not finite."""
    if not _is(raw, (str, float)):
        return math.nan
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        return math.nan


@dataclass(frozen=True)
class VariableSpec:
    """One variable of the system.

    Parameters
    ----------
    name : str
        Identifier used in equations and data files.
    role : {"outcome", "treatment", "mediator", "covariate"}
    kind : {"binary", "continuous", "categorical"}
        Binary variables take values in {0, 1}; categorical variables
        carry an ordered level list whose first entry is the reference.
    levels : tuple
        Level list, categorical only.
    mediator_index : int, optional
        1 for the mediator closest to Y, k for the one closest to X.
        Present exactly when role is "mediator".
    """

    name: str
    role: str
    kind: str
    levels: tuple = ()
    mediator_index: Optional[int] = None

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ModelSpecError("variable name must be a non-empty string")
        if self.role not in ROLES:
            raise ModelSpecError(f"unknown role {self.role!r} for {self.name!r}")
        if self.kind not in KINDS:
            raise ModelSpecError(f"unknown kind {self.kind!r} for {self.name!r}")
        if self.kind == "categorical":
            if len(self.levels) < 2:
                raise ModelSpecError(
                    f"categorical variable {self.name!r} needs at least two levels")
            if not all(_is(lvl, (str, float)) for lvl in self.levels):
                raise ModelSpecError(f"levels of {self.name!r} must be "
                                     f"numbers or strings")
            if len(set(self.levels)) != len(self.levels):
                raise ModelSpecError(
                    f"categorical variable {self.name!r} has duplicate levels")
        elif self.levels:
            raise ModelSpecError(
                f"levels are only allowed on categorical variables ({self.name!r})")
        has_index = self.mediator_index is not None
        if has_index != (self.role == "mediator"):
            raise ModelSpecError(
                f"mediator_index must be present iff role is mediator ({self.name!r})")
        if has_index:
            if not (_is(self.mediator_index, int) and self.mediator_index >= 1):
                raise ModelSpecError(
                    f"mediator_index must be an integer >= 1 ({self.name!r})")
            object.__setattr__(self, "mediator_index",
                               int(self.mediator_index))

    def takes(self, value) -> bool:
        """Whether the variable can take ``value`` (data, argument or
        library call), or every entry of an array of values: binary 0 or
        1, categorical one of its levels, continuous a finite number; a
        boolean is none of them."""
        if isinstance(value, np.ndarray):
            if value.dtype.kind in "iuf":   # numbers, none of them boolean
                if self.kind == "continuous":
                    return bool(np.isfinite(value).all())
                flat = np.sort(value, axis=None)    # each equal run once
                return all(map(self.takes, np.concatenate(
                    [flat[:1], flat[1:][flat[1:] != flat[:-1]]]).tolist()))
            flat = value.ravel().tolist()
            try:    # each distinct value of each type: True equals 1
                return all(self.takes(v) for _, v in set(zip(map(type, flat),
                                                             flat)))
            except TypeError:   # an unhashable entry is no value
                return False
        if self.kind == "continuous":
            return _is(value, float) and math.isfinite(_float(value))
        return _is(value, (str, float)) and value in (
            self.levels if self.kind == "categorical" else (0, 1))

    def refusal(self, value) -> str:
        """The message for a ``value`` that the variable cannot take; for
        an array, its first entry the variable cannot take, and where."""
        wanted = {"binary": "0 or 1", "continuous": "a finite number"}.get(
            self.kind, f"a level in {list(self.levels)}")
        named = reprlib.repr(value)
        if isinstance(value, np.ndarray):   # whole if each entry passes
            named = next((f"{reprlib.repr(v)} (array entry {list(i)})"
                          for i, v in zip(np.ndindex(value.shape),
                                          value.ravel().tolist())
                          if not self.takes(v)), named)
        return (f"{self.role} {self.name!r} cannot take {named}; it takes "
                f"{wanted}")


@dataclass(frozen=True)
class Term:
    """A model term: a set of variable names, empty set meaning the intercept."""

    factors: frozenset

    @staticmethod
    def parse(text: str) -> "Term":
        """Parse "1" (intercept) or colon-joined factors like "X:W"."""
        text = text.strip()
        if text == "1":
            return Term(frozenset())
        parts = [p.strip() for p in text.split(":")]
        if any(not p for p in parts):
            raise ModelSpecError(f"cannot parse term {text!r}")
        if len(set(parts)) != len(parts):
            raise ModelSpecError(f"repeated factor in term {text!r}")
        return Term(frozenset(parts))

    @property
    def order(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return ":".join(sorted(self.factors))


INTERCEPT = Term(frozenset())


@dataclass(frozen=True)
class Column:
    """One design-matrix column: a term with a level chosen per categorical factor.

    ``factors`` is a name-sorted tuple of (variable, level) pairs where the
    level is None for numeric factors.  The empty tuple is the intercept.
    """

    factors: tuple

    @cached_property
    def term(self) -> Term:
        return Term(frozenset(name for name, _ in self.factors))


def column_value(col: Column, assignment: Mapping[str, object]):
    """Product of factor values under ``assignment``.

    Numeric factors contribute their value, categorical factors
    contribute the 0/1 indicator of their level.
    Array values give array results, elementwise.
    """
    v = 1.0
    for name, lvl in col.factors:
        if name not in assignment:
            raise ModelSpecError(f"no value supplied for predictor {name!r}")
        x = assignment[name]
        if lvl is None:
            v = v * x
        else:
            v = v * ((x == lvl) * 1.0)
    return v


def design(spec: SystemSpec, response: str, assignment: Mapping[str, object],
           nrows: int) -> np.ndarray:
    """The (nrows, p) design of ``response`` at ``assignment``: one
    ``column_value`` per column, constants broadcast to every row."""
    return np.column_stack([np.broadcast_to(column_value(c, assignment), nrows)
                            for c in spec.columns(response)])


@dataclass(frozen=True)
class SystemSpec:
    """The DAG plus one ordered hierarchical term list per modelled response."""

    variables: tuple
    equations: Mapping[str, tuple]

    @staticmethod
    def build(variables: Sequence[VariableSpec],
              equations: Mapping[str, Sequence]) -> "SystemSpec":
        """Build from variable specs and equations given as term strings or Terms."""
        return SystemSpec(tuple(variables), {
            resp: tuple(t if isinstance(t, Term) else Term.parse(str(t))
                        for t in terms)
            for resp, terms in equations.items()})

    # -- structure ---------------------------------------------------------

    @cached_property
    def by_name(self) -> Mapping[str, VariableSpec]:
        out = {}
        for v in self.variables:
            if v.name in out:
                raise ModelSpecError(f"duplicate variable name {v.name!r}")
            out[v.name] = v
        return out

    def variable(self, name: str) -> VariableSpec:
        try:
            return self.by_name[name]
        except KeyError:
            raise ModelSpecError(f"unknown variable {name!r}") from None

    @cached_property
    def outcome(self) -> VariableSpec:
        outs = [v for v in self.variables if v.role == "outcome"]
        if len(outs) != 1:
            raise ModelSpecError(f"system declares {len(outs)} outcome "
                                 f"variables, needs 1")
        return outs[0]

    @cached_property
    def treatment(self) -> VariableSpec:
        tr = [v for v in self.variables if v.role == "treatment"]
        if len(tr) != 1:
            raise ModelSpecError(f"system declares {len(tr)} treatment "
                                 f"variables, needs 1")
        return tr[0]

    @cached_property
    def mediators(self) -> tuple:
        """Mediators sorted innermost (index 1) first."""
        meds = [v for v in self.variables if v.role == "mediator"]
        return tuple(sorted(meds, key=lambda v: v.mediator_index))

    @cached_property
    def covariates(self) -> tuple:
        return tuple(v for v in self.variables if v.role == "covariate")

    @cached_property
    def ordering(self) -> tuple:
        """Names in the canonical order Y, W1..Wk, X, C..."""
        return ((self.outcome.name,)
                + tuple(m.name for m in self.mediators)
                + (self.treatment.name,)
                + tuple(c.name for c in self.covariates))

    @cached_property
    def responses(self) -> tuple:
        """Modelled responses in canonical order (outcome first)."""
        declared = set(self.equations)
        return tuple(n for n in self.ordering if n in declared)

    def terms(self, response: str) -> tuple:
        try:
            return self.equations[response]
        except KeyError:
            raise ModelSpecError(f"no equation for response {response!r}") from None

    def predictors(self, response: str) -> frozenset:
        return frozenset().union(*(t.factors for t in self.terms(response)))

    # -- design columns ----------------------------------------------------

    def _expand_term(self, term: Term) -> tuple:
        names = sorted(term.factors)
        if not names:
            return (Column(()),)
        choices = []
        for n in names:
            var = self.variable(n)
            if var.kind == "categorical":
                choices.append(tuple((n, lvl) for lvl in var.levels[1:]))
            else:
                choices.append(((n, None),))
        return tuple(Column(tuple(combo)) for combo in itertools.product(*choices))

    @cached_property
    def _columns(self) -> Mapping[str, tuple]:
        return {resp: tuple(c for t in terms for c in self._expand_term(t))
                for resp, terms in self.equations.items()}

    def columns(self, response: str) -> tuple:
        try:
            return self._columns[response]
        except KeyError:
            raise ModelSpecError(f"no equation for response {response!r}") from None

    def column_label(self, col: Column) -> str:
        if not col.factors:
            return "1"
        parts = []
        for name, lvl in col.factors:
            if lvl is None:
                parts.append(name)
            else:
                ref = self.variable(name).levels[0]
                parts.append(f"{name}{{{lvl},{ref}}}")
        return ":".join(parts)

    @cached_property
    def _labelled(self) -> Mapping[str, Column]:
        return {self.column_label(c): c
                for cols in self._columns.values() for c in cols}

    def parse_column_label(self, text: str) -> Column:
        """The column that ``column_label`` labels ``text``, factors in
        any order: a level is always read against its variable's first
        level."""
        pieces = sorted((p.strip() for p in text.split(":")),
                        key=lambda p: p.split("{")[0])
        try:
            return self._labelled[":".join(pieces)]
        except KeyError:
            raise ModelSpecError(f"no column of the system is labelled "
                                 f"{text.strip()!r}") from None

    @cached_property
    def flat_coords(self) -> tuple:
        """All (response, column) pairs in the canonical flattened order."""
        return tuple((resp, col) for resp in self.responses
                     for col in self.columns(resp))

    @cached_property
    def coord_index(self) -> Mapping[tuple, int]:
        """Position of each (response, column) in ``flat_coords``."""
        return {coord: i for i, coord in enumerate(self.flat_coords)}

    @cached_property
    def slices(self) -> Mapping[str, slice]:
        """Each response's slice of ``flat_coords``, in response order."""
        out, start = {}, 0
        for resp in self.responses:
            out[resp] = slice(start, start + len(self.columns(resp)))
            start = out[resp].stop
        return out

    def coord(self, response: str, col) -> int:
        """Position of ``response``'s column ``col`` (a Column or its
        label) in ``flat_coords``."""
        if isinstance(col, str):
            col = self.parse_column_label(col)
        try:
            return self.coord_index[(response, col)]
        except KeyError:
            raise ModelSpecError(
                f"no coefficient for {response!r} column "
                f"{self.column_label(col)!r}") from None

    @cached_property
    def reductions(self) -> dict:
        """Plans of mediator reductions, by removed mediator (``multi``)."""
        return {}

    @cached_property
    def masks(self) -> dict:
        """Masks of effect components, by (component, path) (``effects``)."""
        return {}

    @cached_property
    def programs(self) -> dict:
        """Compiled corner programs of the marginal logits, by number of
        summed mediators (``effects``)."""
        return {}

    # -- validation --------------------------------------------------------

    def validate(self) -> list:
        """Collect invariant violations; empty list means the system is valid."""
        problems = []
        try:
            self.by_name, self.outcome, self.treatment
        except ModelSpecError as e:
            return [str(e)]
        if self.outcome.kind != "binary":
            problems.append(f"outcome {self.outcome.name!r} must be binary")
        idx = sorted(m.mediator_index for m in self.mediators)
        if idx != list(range(1, len(idx) + 1)):
            problems.append(f"mediator indices {idx} must be 1..k with no gaps")
        for m in self.mediators:
            if m.kind != "binary":
                problems.append(f"mediator {m.name!r} must be binary")
        order = {n: i for i, n in enumerate(self.ordering)}
        for resp, terms in self.equations.items():
            if resp not in self.by_name:
                problems.append(f"equation for undeclared variable {resp!r}")
                continue
            role = self.by_name[resp].role
            if role in ("covariate", "treatment"):
                problems.append(f"{role} {resp!r} cannot be a response")
                continue
            if not terms:
                problems.append(f"equation {resp!r} has no terms")
            seen = set()
            present = {t.factors for t in terms}
            for t in terms:
                if t.factors in seen:
                    problems.append(f"{resp}: duplicate term {t}")
                seen.add(t.factors)
                for v in t.factors:
                    if v not in self.by_name:
                        problems.append(f"{resp}: term {t} uses undeclared {v!r}")
                    elif order[v] <= order[resp]:
                        problems.append(
                            f"{resp}: predictor {v!r} does not come after the "
                            f"response in the ordering (recursivity)")
                for r in range(t.order):
                    for sub in itertools.combinations(sorted(t.factors), r):
                        if frozenset(sub) not in present:
                            missing = Term(frozenset(sub))
                            problems.append(
                                f"{resp}: term {t} requires lower-order "
                                f"term {missing} (hierarchy)")
        for m in self.mediators:
            if m.name not in self.equations:
                problems.append(f"mediator {m.name!r} has no equation")
        if self.outcome.name not in self.equations:
            problems.append(f"outcome {self.outcome.name!r} has no equation")
        return problems

    def require_valid(self) -> "SystemSpec":
        problems = self.validate()
        if problems:
            raise ModelSpecError("invalid system: " + "; ".join(problems))
        return self

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        vs = []
        for v in self.variables:
            d = {"name": v.name, "role": v.role, "kind": v.kind}
            if v.kind == "categorical":
                d["levels"] = list(v.levels)
            if v.mediator_index is not None:
                d["index"] = v.mediator_index
            vs.append(d)
        eqs = {resp: [str(t) for t in terms]
               for resp, terms in self.equations.items()}
        return {"variables": vs, "equations": eqs}

    @staticmethod
    def from_json_dict(d: Mapping) -> "SystemSpec":
        """Build from a model document; a malformed field raises a
        ModelSpecError that names it."""
        raw_vars = json_field(d, "variables", list, "the model")
        raw_eqs = json_field(d, "equations", dict, "the model")
        variables = []
        for i, rv in enumerate(raw_vars):
            where = f"variables[{i}]"
            if not isinstance(rv, dict):
                raise ModelSpecError(f"{where} must be an object, got {rv!r}")
            variables.append(VariableSpec(
                name=json_field(rv, "name", str, where),
                role=json_field(rv, "role", str, where),
                kind=json_field(rv, "kind", str, where),
                levels=tuple(json_field(rv, "levels", list, where)
                             if "levels" in rv else ()),
                mediator_index=rv.get("index", rv.get("mediator_index"))))
        return SystemSpec.build(variables, {
            resp: json_field(raw_eqs, resp, list, "'equations'")
            for resp in raw_eqs})


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               bool: "true or false", int: "an integer", float: "a number"}


def json_field(doc, key: str, kind, where: str):
    """``doc[key]`` of a JSON document, checked by ``_is`` to be a
    ``kind`` (dict, list, str, bool, int or float, or a tuple of them),
    an int as an int; otherwise a ModelSpecError that names the field and
    ``where`` it sits."""
    if not isinstance(doc, dict) or key not in doc:
        raise ModelSpecError(f"{where} has no {key!r}")
    value = doc[key]
    if not _is(value, kind):
        wanted = " or ".join(map(_JSON_TYPES.get, kind if isinstance(
            kind, tuple) else (kind,)))
        raise ModelSpecError(f"{key!r} of {where} must be {wanted}, "
                             f"got {value!r}")
    return int(value) if kind is int else value


def json_number(doc, key: str, where: str, minimum: float = -math.inf):
    """``doc[key]`` as a finite float no smaller than ``minimum``;
    otherwise a ModelSpecError that names the field."""
    value = json_field(doc, key, float, where)
    if not (math.isfinite(_float(value)) and value >= minimum):
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise ModelSpecError(f"{key!r} of {where} must be a finite "
                             f"number{bound}, got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class ParameterSet:
    """One coefficient per design column of every equation in a system.

    ``vector`` is a read-only float array in ``spec.flat_coords`` order;
    ``spec.coord`` and ``spec.slices`` locate a coefficient or an equation
    in it.  ``replace`` and ``ZeroMask.apply`` return modified copies.
    """

    spec: SystemSpec
    vector: np.ndarray

    def __post_init__(self):
        vec = np.array(self.vector, dtype=float)
        if vec.shape != (len(self.spec.flat_coords),):
            raise ModelSpecError(
                f"vector of shape {vec.shape} does not match the "
                f"{len(self.spec.flat_coords)} coefficients of the system")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    def __eq__(self, other):
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.vector,
                                                          other.vector)

    @staticmethod
    def from_vector(spec: SystemSpec, vec) -> "ParameterSet":
        """Same as ``ParameterSet(spec, vec)``; the bench counts its calls."""
        return ParameterSet(spec, vec)

    @staticmethod
    def zeros(spec: SystemSpec) -> "ParameterSet":
        return ParameterSet(spec, np.zeros(len(spec.flat_coords)))

    @staticmethod
    def from_nested(spec: SystemSpec, nested: Mapping[str, Mapping[str, float]],
                    strict: bool = False) -> "ParameterSet":
        """Build from {response: {column label: value}}.

        Labels missing from ``nested`` default to 0 unless ``strict``;
        unknown responses or labels, and values that are not finite
        numbers, always raise.
        """
        vec = np.zeros(len(spec.flat_coords))
        given = set()
        for resp in nested:
            labels = json_field(nested, resp, dict, "'params'")
            for label in labels:
                i = spec.coord(resp, label)
                vec[i] = json_number(labels, label, f"{resp!r} of 'params'")
                given.add(i)
        if strict and len(given) < len(vec):
            missing = [f"{r}:{spec.column_label(c)}" for i, (r, c)
                       in enumerate(spec.flat_coords) if i not in given]
            raise ModelSpecError(f"values missing for {missing}")
        return ParameterSet(spec, vec)

    def get(self, response: str, col) -> float:
        return float(self.vector[self.spec.coord(response, col)])

    def nested(self) -> dict:
        spec = self.spec
        return {resp: dict(zip(map(spec.column_label, spec.columns(resp)),
                               self.vector[s].tolist()))
                for resp, s in spec.slices.items()}

    def replace(self, updates: Mapping[tuple, float]) -> "ParameterSet":
        """Copy with (response, column-or-label) entries overwritten."""
        vec = self.vector.copy()
        for (resp, col), val in updates.items():
            vec[self.spec.coord(resp, col)] = float(val)
        return ParameterSet(self.spec, vec)

    @cached_property
    def pairs(self) -> Mapping[str, tuple]:
        """{response: ((coefficient, column), ...)} as Python floats."""
        return {resp: tuple(zip(self.vector[s].tolist(), self.spec.columns(resp)))
                for resp, s in self.spec.slices.items()}

    def linear_predictor(self, response: str, assignment: Mapping[str, object]):
        """Sum of coefficient times column value; array values give an
        array, elementwise."""
        try:
            pairs = self.pairs[response]
        except KeyError:
            raise ModelSpecError(f"no equation for response {response!r}") from None
        acc = 0.0
        for coef, col in pairs:
            acc = acc + coef * column_value(col, assignment)
        return acc


@dataclass(frozen=True, eq=False)
class ZeroMask:
    """The coefficients of one system that are forced to zero: a
    read-only boolean vector over ``spec.flat_coords``.

    Built from (response, variable) targets: zeroing variable v inside
    equation r zeroes every column of r whose term contains v, so
    higher-order interactions are always swept along with the main effect.
    """

    spec: SystemSpec
    zeroed: np.ndarray

    @staticmethod
    def from_targets(spec: SystemSpec,
                     targets: Iterable[tuple]) -> "ZeroMask":
        zeroed = np.zeros(len(spec.flat_coords), dtype=bool)
        for resp, var in targets:
            if resp not in spec.equations:
                raise ModelSpecError(f"no equation for response {resp!r}")
            spec.variable(var)
            zeroed[spec.slices[resp]] |= [var in col.term.factors
                                          for col in spec.columns(resp)]
        zeroed.setflags(write=False)
        return ZeroMask(spec, zeroed)

    def apply(self, params: ParameterSet) -> ParameterSet:
        if params.spec is not self.spec and params.spec != self.spec:
            raise ModelSpecError("a coefficient mask applies only to the "
                                 "system it was built for")
        return ParameterSet(params.spec, np.where(self.zeroed, 0.0,
                                                  params.vector))
