"""Untrusted-device models: construction, validation, block stacks and files.

A device holds a quantum system with an initial operator, one projective
measurement per input letter, and one unitary per input letter applied after
the measurement.  Three structure tags are supported:

  general     no structural restriction,
  components  the space and measurements factor over r sites,
  contextual  inputs are non-repeating sequences of base letters whose
              per-letter measurements commute within each declared context.

Devices are immutable after construction; the memory a device keeps between
rounds is carried by the caller as evolved per-block states (see
``protocol``), never by mutable device state.  A device is split into its
orthogonal blocks once: ``blocks`` and the read-only per-block stacks of its
state, projectors and round operators U_a P_a^x are cached on first use, and
every device quantity the package computes, the Born table included, is read
from those stacks.  Each input letter's projectors are stored once, in one
read-only stack that ``measurements``, the stacks and the round operators view.
A ``direct_sum`` holds its block stacks from construction, and its dense
projectors are built when a ``measurements`` value is first read.  What
depends on a device alone, or on a (game, device) pair, is kept on the
device the same way once computed: ``protocol``'s round plans and
``scoring``'s eigenvalue spectra.

``json_write`` is the package's one JSON writer: every stdout payload, device
file and game file is one walk of its object, handed to its sink in chunks of
a bounded number of parts, so no text is held whole.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import matcore
from .matcore import (
    HERM_TOL,
    as_matrix,
    dagger,
    frozen,
    hermiticity_defect,
    projector_defect,
)

GENERAL = "general"
COMPONENTS = "components"
CONTEXTUAL = "contextual"
KINDS = (GENERAL, COMPONENTS, CONTEXTUAL)

Letter = Any  # hashable: int, str, or (nested) tuple


class DeviceError(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    check: str
    deviation: float
    detail: str = ""


@dataclass
class ValidationReport:
    """List of violated invariants with their worst observed deviation."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, deviation: float, detail: str = "") -> None:
        self.violations.append(Violation(check, float(deviation), detail))

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{v.check} ({v.deviation:.3e}) {v.detail}".strip() for v in self.violations)


def _read_only(arrays: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The arrays as a tuple, each marked read-only in place."""
    arrays = tuple(arrays)
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _scattered(blocks, stacks, lead: tuple[int, ...]) -> np.ndarray:
    """The read-only (*lead, dim, dim) zero array whose ``split_blocks`` are ``stacks``."""
    dim = sum(idx.size for idx in blocks)
    dense = np.zeros((*lead, dim, dim), dtype=np.complex128)
    for idx, stack in zip(blocks, stacks):
        dense[..., idx[:, :, None], idx[:, None, :]] = stack
    return _read_only([dense])[0]


class _Measurement(Mapping):
    """One input letter's projectors: each listed output maps to a row of
    ``_dense``, one read-only (outputs, dim, dim) stack laid out as
    ``matcore.split_blocks`` lays out its stacks (outputs axis fastest), or
    scattered from block stacks on the first read.  Projectors of mixed
    shapes are a list of matrices, which only ``validate_device`` reads."""

    def __init__(self, outputs: Iterable[Letter], dense=None, blocks=(), stacks=()) -> None:
        self._rows = {x: j for j, x in enumerate(outputs)}
        self._blocks, self._stacks = blocks, stacks
        if dense is not None:
            self._dense = dense

    @functools.cached_property
    def _dense(self) -> np.ndarray:
        return _scattered(self._blocks, self._stacks, (len(self._rows),))

    def __getitem__(self, x: Letter) -> np.ndarray:
        return self._dense[self._rows[x]]

    def __contains__(self, x: object) -> bool:
        return x in self._rows

    def __iter__(self) -> Iterator[Letter]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _measurement(outs: Mapping[Letter, Any], dim: int) -> _Measurement:
    """``outs`` as a ``_Measurement``, its projectors copied into one stack."""
    if isinstance(outs, _Measurement):
        return outs
    mats = [as_matrix(p) for p in outs.values()]
    if not mats or any(m.shape != (dim, dim) for m in mats):
        return _Measurement(outs, [frozen(m) for m in mats])
    return _Measurement(outs, _read_only([np.stack(mats, axis=-1).transpose(2, 0, 1)])[0])


# eq=False: a device compares and hashes by identity, as its fields hold arrays
@dataclass(frozen=True, eq=False)
class Device:
    kind: str
    dims: tuple[int, ...]
    state: np.ndarray  # initial operator on the full space
    input_alphabet: tuple[Letter, ...]
    output_alphabet: tuple[Letter, ...]
    measurements: Mapping[Letter, Mapping[Letter, np.ndarray]]
    unitaries: Mapping[Letter, np.ndarray]
    name: str = ""

    def __post_init__(self) -> None:
        # however a device is built, its kind is known, its maps are read-only
        # and each letter a _Measurement
        if self.kind not in KINDS:
            raise DeviceError(f"unknown device kind {self.kind!r}")
        letters = {a: _measurement(outs, self.dim) for a, outs in self.measurements.items()}
        object.__setattr__(self, "measurements", MappingProxyType(letters))
        object.__setattr__(self, "unitaries", MappingProxyType(dict(self.unitaries)))

    @property
    def dim(self) -> int:
        return self.state.shape[0]

    @functools.cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """``matcore.support_blocks`` of the state, every projector and every
        unitary, found on first use: each of them, and every branch and
        sandwich built from them, is block diagonal on these index stacks."""
        mats = itertools.chain(
            [self.state],
            (p for outs in self.measurements.values() for p in outs.values()),
            self.unitaries.values(),
        )
        return matcore.support_blocks(mats, self.dim)

    @functools.cached_property
    def state_blocks(self) -> tuple[np.ndarray, ...]:
        """The state's read-only ``matcore.split_blocks`` on ``blocks``, built on first use."""
        return _read_only(matcore.split_blocks(self.state, self.blocks))

    @functools.cached_property
    def projector_blocks(self) -> Mapping[Letter, tuple[np.ndarray, ...]]:
        """Per measured letter, its projectors in listed order as one read-only
        (outputs, k, s, s) stack per block size, built on first use.  When one
        block spans the space, the stack is a view of the letter's stack."""
        whole = len(self.blocks) == 1 and len(self.blocks[0]) == 1
        return {
            a: (outs._dense[:, None],) if whole
            else _read_only(matcore.split_blocks(outs._dense, self.blocks))
            for a, outs in self.measurements.items()
        }

    @functools.cached_property
    def round_ops(self) -> Mapping[Letter, tuple[np.ndarray, ...]]:
        """Per measured letter, the round operators U_a P_a^x of its outputs,
        stacked as in ``projector_blocks``, built on first use.  A letter
        without a unitary has its ``projector_blocks`` as its round operators."""
        return {
            a: _read_only(u[None] @ p for u, p in zip(
                matcore.split_blocks(self.unitaries[a], self.blocks), self.projector_blocks[a]))
            if a in self.unitaries else self.projector_blocks[a]
            for a in self.measurements
        }

    @functools.cached_property
    def _round_plans(self) -> dict:
        """Per game, by identity, ``protocol``'s round plan of (game, device),
        stored there on first use, so a plan lives as long as its device."""
        return {}

    @functools.cached_property
    def _spectra(self) -> dict:
        """``scoring``'s eps-free spectra of this device, each stored there on
        first use as read-only ``matcore.block_psd_spectra`` arrays: under
        ("state",) the state's, under ("branches", a) letter a's branches
        P_a^x phi P_a^x, and under ("score", g), by game identity, that of
        sqrt(K) phi sqrt(K).  Only the power 1 + eps is taken per call."""
        return {}


def _listed_outputs(measurements: Mapping[Letter, Mapping[Letter, Any]]) -> tuple[Letter, ...]:
    """The output letters a measurement map lists, in first-seen order."""
    return tuple(dict.fromkeys(x for outs in measurements.values() for x in outs))


def make_device(
    kind: str,
    dims: Sequence[int],
    state,
    measurements: Mapping[Letter, Mapping[Letter, Any]],
    unitaries: Mapping[Letter, Any] | None = None,
    input_alphabet: Sequence[Letter] | None = None,
    output_alphabet: Sequence[Letter] | None = None,
    name: str = "",
) -> Device:
    """Normalize inputs and build an immutable Device (no validation here)."""
    unis = {a: frozen(as_matrix(u)) for a, u in (unitaries or {}).items()}
    inputs = measurements if input_alphabet is None else input_alphabet
    outputs = _listed_outputs(measurements) if output_alphabet is None else output_alphabet
    return Device(kind, tuple(map(int, dims)), frozen(as_matrix(state)), tuple(inputs),
                  tuple(outputs), measurements, unis, name)


def components_device(
    site_dims: Sequence[int],
    state,
    site_measurements: Sequence[Mapping[Letter, Mapping[Letter, Any]]],
    name: str = "",
) -> Device:
    """Build an r-site device without unitaries from per-site measurements.

    Joint input letters are tuples of per-site inputs, joint outputs tuples of
    per-site outputs; joint projectors are Kronecker products, one broadcast
    product per site with the outputs axes last, so that the letter's stack
    is a view of the last product.  Only products of listed (nonzero) site
    projectors are stored.
    """
    if len(site_measurements) != len(site_dims):
        raise DeviceError("one measurement map per site required")
    inputs = list(itertools.product(*site_measurements))
    outputs = list(itertools.product(*map(_listed_outputs, site_measurements)))
    meas: dict[Letter, _Measurement] = {}
    for a in inputs:
        xs, mats = [()], np.ones((1, 1, 1), dtype=np.complex128)  # (dim, dim, outputs)
        for m, ai in zip(site_measurements, a):
            site = np.stack([as_matrix(p) for p in m[ai].values()], axis=-1)
            xs = [x + (xi,) for x in xs for xi in m[ai]]
            prod = mats[:, None, :, None, :, None] * site[None, :, None, :, None, :]
            dim = prod.shape[0] * prod.shape[1]
            mats = prod.reshape(dim, dim, len(xs))
        meas[a] = _Measurement(xs, _read_only([mats.transpose(2, 0, 1)])[0])
    return make_device(COMPONENTS, site_dims, state, meas, None, inputs, outputs, name)


def block_device(blocks, state_blocks, letters, input_alphabet, output_alphabet, name="") -> Device:
    """A general device without unitaries held as its block stacks, marked
    read-only in place: ``blocks`` in ``matcore.support_blocks`` order, the
    state's (k, s, s) stacks, and per measured letter its listed outputs and
    one (outputs, k, s, s) stack per block size laid out as ``split_blocks``
    lays it out (no validation here)."""
    blocks, state_blocks = _read_only(blocks), _read_only(state_blocks)
    stacks = {a: _read_only(s) for a, (_, s) in letters.items()}
    meas = {a: _Measurement(xs, blocks=blocks, stacks=stacks[a]) for a, (xs, _) in letters.items()}
    d = Device(GENERAL, (sum(idx.size for idx in blocks),), _scattered(blocks, state_blocks, ()),
               tuple(input_alphabet), tuple(output_alphabet), meas, {}, name)
    # a cached property reads the instance dict first, so the device holds its stacks from the start
    d.__dict__.update(blocks=blocks, state_blocks=state_blocks, projector_blocks=stacks)
    return d


def direct_sum(parts: Sequence[tuple[float, Device]], name: str = "") -> Device:
    """The direct sum of devices without unitaries: part i's state times its
    positive weight, each output's projector summed over the parts listing it,
    and the parts' alphabets joined in first-seen order; every part must
    measure every joined input letter.  Its block stacks are
    ``support_blocks`` / ``split_blocks`` of the dense sum, built from the
    parts' stacks: per block size, the parts' blocks in part order, zero blocks
    for outputs a part does not list, the outputs axis fastest in memory."""
    if not parts:
        raise DeviceError("direct_sum takes at least one part")
    inputs, outputs = (tuple(dict.fromkeys(c for _, d in parts for c in getattr(d, f)))
                       for f in ("input_alphabet", "output_alphabet"))
    for i, (w, d) in enumerate(parts):
        if not (math.isfinite(w) and w > 0):
            raise DeviceError(f"part {i} has weight {w!r}; weights must be positive and finite")
        if d.unitaries:
            raise DeviceError("direct_sum takes parts without unitaries")
        if missing := [a for a in inputs if a not in d.measurements]:
            raise DeviceError(f"part {i} does not measure input letter {missing[0]!r}")
    starts = itertools.accumulate((d.dim for _, d in parts), initial=0)
    rows: dict[int, list] = {}  # block size -> (weight, part, stack position, indices)
    for (w, d), start in zip(parts, starts):
        for j, idx in enumerate(d.blocks):
            rows.setdefault(idx.shape[1], []).append((w, d, j, idx + start))
    groups = [rows[s] for s in sorted(rows)]
    blocks = [np.concatenate([idx for *_, idx in g]) for g in groups]
    state_blocks = [np.concatenate([w * d.state_blocks[j] for w, d, j, _ in g]) for g in groups]
    letters = {}
    for a in inputs:
        listed = dict.fromkeys(x for _, d in parts for x in d.measurements[a])
        at = dict(zip(listed, itertools.count()))
        stacks = [np.moveaxis(np.zeros((*i.shape, i.shape[1], len(at)), np.complex128), -1, 0)
                  for i in blocks]
        for stack, g in zip(stacks, groups):
            ks = itertools.accumulate((len(idx) for *_, idx in g), initial=0)
            for (_, d, j, idx), k in zip(g, ks):
                stack[[at[x] for x in d.measurements[a]], k:k + len(idx)] = d.projector_blocks[a][j]
        letters[a] = (at, stacks)
    return block_device(blocks, state_blocks, letters, inputs, outputs, name)


def _is_tuple_of(x: Letter, m: int) -> bool:
    return isinstance(x, tuple) and len(x) == m


def _coordinate_marginals(outs: Mapping, m: int) -> list[dict] | None:
    """Coordinate k's letter y -> sum of P_x with x[k] = y; None unless all x are m-tuples."""
    if not all(_is_tuple_of(x, m) for x in outs):
        return None
    marginals: list[dict[Letter, np.ndarray]] = [{} for _ in range(m)]
    for x, p in outs.items():
        for k, y in enumerate(x):
            marginals[k][y] = marginals[k].get(y, 0) + p
    return marginals


def _product_defect(outs: Mapping, marginals: Sequence[Mapping]) -> float:
    """Worst |M_1^{x_1} ... M_m^{x_m} - P_x| over the outputs x."""
    worst = 0.0
    for x, p in outs.items():
        prod = np.eye(p.shape[0], dtype=np.complex128)
        for k, y in enumerate(x):
            prod = prod @ marginals[k][y]
        worst = max(worst, float(np.max(np.abs(prod - p))))
    return worst


def _embedding_defect(m: np.ndarray, dims: Sequence[int], site: int) -> float:
    """Distance of m from I_pre (x) Q (x) I_post, Q its normalized partial trace."""
    r, d = len(dims), dims[site]
    rest = math.prod(dims) // d
    t = np.moveaxis(m.reshape(tuple(dims) * 2), (site, r + site), (r - 1, 2 * r - 1))
    t = t.reshape(rest, d, rest, d)
    q = np.einsum("aiaj->ij", t) / rest
    return float(np.max(np.abs(t - np.einsum("ab,ij->aibj", np.eye(rest), q))))


def _validate_components_structure(d: Device, report: ValidationReport) -> None:
    dims = d.dims
    r = len(dims)
    for a in d.input_alphabet:
        if not _is_tuple_of(a, r):
            report.add("component-input-structure", 1.0, f"input {a!r} is not an {r}-tuple")
            return
    for a, outs in d.measurements.items():
        marginals = _coordinate_marginals(outs, r)
        if marginals is None:
            x = next(x for x in outs if not _is_tuple_of(x, r))
            report.add("component-output-structure", 1.0, f"output {x!r} is not an {r}-tuple")
            return
        worst_embed = max(
            (_embedding_defect(m, dims, i) for i in range(r) for m in marginals[i].values()),
            default=0.0,
        )
        if worst_embed > HERM_TOL:
            report.add("component-marginal-factorization", worst_embed, f"input {a!r}")
        worst_prod = _product_defect(outs, marginals)
        if worst_prod > HERM_TOL:
            report.add("component-product-form", worst_prod, f"input {a!r}")


def _validate_contextual_structure(d: Device, report: ValidationReport) -> None:
    # contexts are the declared input letters: non-repeating base-letter tuples
    base_marginals: dict[Letter, dict[Letter, np.ndarray]] = {}
    for a in d.input_alphabet:
        if not isinstance(a, tuple):
            report.add("context-structure", 1.0, f"context {a!r} is not a tuple")
            return
        if len(set(a)) != len(a):
            report.add("context-repeats", 1.0, f"context {a!r} repeats a base letter")
    for a, outs in d.measurements.items():
        m = len(a)
        per_letter = _coordinate_marginals(outs, m)
        if per_letter is None:
            x = next(x for x in outs if not _is_tuple_of(x, m))
            report.add(
                "context-output-length", 1.0,
                f"output {x!r} does not match context length {m}",
            )
            return
        # per-letter marginals must be projectors, commute within the context,
        # agree across contexts, and their products rebuild the joint operators
        worst_proj = 0.0
        worst_comm = 0.0
        for k, b in enumerate(a):
            stored = base_marginals.setdefault(b, {})
            for y, q in per_letter[k].items():
                worst_proj = max(worst_proj, projector_defect(q))
                if y in stored:
                    dev = float(np.max(np.abs(stored[y] - q)))
                    if dev > HERM_TOL:
                        report.add(
                            "context-consistency", dev,
                            f"base letter {b!r} differs between contexts",
                        )
                else:
                    stored[y] = q
        for marg_j, marg_k in itertools.combinations(per_letter, 2):
            for qj in marg_j.values():
                for qk in marg_k.values():
                    worst_comm = max(worst_comm, float(np.max(np.abs(qj @ qk - qk @ qj))))
        if worst_proj > HERM_TOL:
            report.add("context-marginal-projector", worst_proj, f"context {a!r}")
        if worst_comm > HERM_TOL:
            report.add("context-commutation", worst_comm, f"context {a!r}")
        worst_prod = _product_defect(outs, per_letter)
        if worst_prod > HERM_TOL:
            report.add("context-product-form", worst_prod, f"context {a!r}")


def validate_device(d: Device) -> ValidationReport:
    """Check every device invariant; the report is empty iff the device is well formed."""
    report = ValidationReport()
    dim = d.dim
    prod = math.prod(d.dims)
    if prod != dim:
        report.add("dims-product", abs(prod - dim), f"dims {d.dims} vs state dim {dim}")

    h = hermiticity_defect(d.state)
    if h > HERM_TOL:
        report.add("state-hermitian", h)
    psd = matcore.psd_defect(np.linalg.eigvalsh((d.state + dagger(d.state)) / 2))
    if psd > 0:
        report.add("state-psd", psd)
    tr = float(np.trace(d.state).real)
    if abs(tr - 1.0) > HERM_TOL:
        report.add("state-trace", abs(tr - 1.0))

    misfit = False
    # every measured letter is checked, since kernels read all of d.measurements
    for a in dict.fromkeys([*d.input_alphabet, *d.measurements]):
        outs = d.measurements.get(a)
        if outs is None:
            report.add("measurement-missing", 1.0, f"input {a!r}")
            continue
        sized = []
        for x, p in outs.items():
            if p.shape[0] != dim:
                report.add("measurement-dim", abs(p.shape[0] - dim), f"({a!r}, {x!r})")
                misfit = True
                continue
            sized.append(p)
            if x not in d.output_alphabet:
                report.add("output-letter", 1.0, f"{x!r} not in output alphabet")
        defects = matcore.resolution_defects(sized, dim)
        for check, defect in zip(("projector", "completeness", "orthogonality"), defects):
            if defect > HERM_TOL:
                report.add(f"measurement-{check}", defect, f"input {a!r}")

    for a, u in d.unitaries.items():
        if u.shape[0] != dim:
            report.add("unitary-dim", abs(u.shape[0] - dim), f"input {a!r}")
            continue
        dev = float(np.max(np.abs(dagger(u) @ u - np.eye(dim))))
        if dev > HERM_TOL:
            report.add("unitary", dev, f"input {a!r}")

    if misfit:
        return report
    if d.kind == COMPONENTS and prod == dim:
        _validate_components_structure(d, report)
    elif d.kind == CONTEXTUAL:
        _validate_contextual_structure(d, report)
    return report


def born_probabilities(d: Device, a: Letter) -> dict[Letter, float]:
    """Outcome distribution for one use on input a (unlisted outputs omitted):
    Tr[P_a^x phi] summed over the blocks of the device, one einsum per block size."""
    if a not in d.measurements:
        raise DeviceError(f"unknown input letter {a!r}")
    probs = sum(
        np.einsum("xkij,kji->x", p, f).real for p, f in zip(d.projector_blocks[a], d.state_blocks)
    )
    return dict(zip(d.measurements[a], probs.tolist()))


# ---------------------------------------------------------------------------
# file format


def _letter_from_json(obj) -> Letter:
    if isinstance(obj, list):
        return tuple(_letter_from_json(v) for v in obj)
    if isinstance(obj, dict):
        raise TypeError(f"letter {obj!r} is not a number, string or list")
    return obj


def _device_tree(d: Device) -> dict:
    """The dict ``device_from_dict`` reads, with its matrices left as arrays
    and its letters as they are (``json_write`` writes tuples as lists)."""
    inputs = []
    for a in d.input_alphabet:
        entry: dict[str, Any] = {
            "letter": a,
            "projectors": [{"output": x, "matrix": p} for x, p in d.measurements[a].items()],
        }
        if a in d.unitaries:
            entry["unitary"] = d.unitaries[a]
        inputs.append(entry)
    return {
        "kind": d.kind,
        "name": d.name,
        "dims": list(d.dims),
        "phi": d.state,
        "output_alphabet": list(d.output_alphabet),
        "inputs": inputs,
    }


@dataclass(frozen=True)
class _Records:
    """A JSON list of flat records held by column: record k maps each key to
    ``columns[key][k]``, a number, bool or None, and every column has one
    entry per record.  ``json_write`` writes it as the list of dicts."""

    columns: Mapping[str, Sequence]

    def json_blocks(self, pad: str, step: str) -> Iterator[list[str]]:
        """The records as ``json.dumps(..., sort_keys=True)`` indents them by
        ``step`` on a line indented by ``pad``, built in bulk
        ``_RECORD_BLOCK`` records at a time: per block, a list of short
        strings (one scalar or separator each), the joins of all blocks in
        turn being that text.  Each scalar's text is the C encoder's, which
        the indenting encoder shares, and none contains ", "."""
        keys = sorted(self.columns)
        n = len(self.columns[keys[0]])
        if any(len(self.columns[k]) != n for k in keys):
            raise ValueError("record columns must be of equal length and hold scalars")
        if not n:
            yield ["[]"]
            return
        record, field = "\n" + pad + step, "\n" + pad + step * 2
        names = [json.dumps(k) + ": " for k in keys]
        # the text after each scalar: before the next key, and between records
        seps = ["," + field + name for name in names[1:]]
        seps.append(record + "}," + record + "{" + field + names[0])
        opening = "[" + record + "{" + field + names[0]
        for start in range(0, n, _RECORD_BLOCK):
            size = min(_RECORD_BLOCK, n - start)
            texts = [json.dumps(list(self.columns[k][start:start + size]))[1:-1].split(", ")
                     for k in keys]
            if any(len(t) != size for t in texts):
                raise ValueError("record columns must be of equal length and hold scalars")
            parts = [""] * (2 * len(keys) * size + 1)
            parts[0] = "" if start else opening
            parts[1::2] = itertools.chain.from_iterable(zip(*texts))
            parts[2::2] = seps * size
            if start + size == n:  # after the last scalar
                parts[-1] = record + "}\n" + pad + "]"
            yield parts


# the records of a _Records, and the CLI's CSV rows, are written this many at a time
_RECORD_BLOCK = 1 << 12

# the walk hands its pending parts to the sink once they number this many
_FLUSH_PARTS = 1 << 14


def _json_parts(o: Any, pad: str, step: str, out: list[str], seen: dict[str, str],
                write: Callable[[str], Any]) -> None:
    """Append to ``out`` the text of ``o`` on a line indented by ``pad``, as
    ``json_write`` writes it; ``seen`` keeps each separator and key text once.
    Once ``out`` holds ``_FLUSH_PARTS`` parts, the join of them goes to
    ``write`` and ``out`` is cleared, so ``out`` never holds more than that
    many parts, two per open container and one bulk leaf: a matrix, or one
    block of a ``_Records``, whose blocks are flushed between.  A module-level
    function, not a closure: a closure that calls itself is a reference
    cycle, which would keep ``out`` alive until the cyclic collector runs."""
    if isinstance(o, Device):
        o = _device_tree(o)
    if isinstance(o, np.ndarray):
        out.extend(matcore.matrix_json_parts(o, pad, step))
    elif isinstance(o, _Records):
        for k, parts in enumerate(o.json_blocks(pad, step)):
            if k:  # between blocks
                write("".join(out))
                out.clear()
            out.extend(parts)
    elif isinstance(o, (dict, list, tuple)):
        keyed = isinstance(o, dict)
        inner = pad + step
        out.append("{" if keyed else "[")
        for k, key in enumerate(sorted(o) if keyed else range(len(o))):
            sep = ("," if k else "") + "\n" + inner
            sep += json.dumps(str(key)) + ": " if keyed else ""
            out.append(seen.setdefault(sep, sep))
            _json_parts(o[key], inner, step, out, seen, write)
        close = ("\n" + pad if o else "") + ("}" if keyed else "]")
        out.append(seen.setdefault(close, close))
    elif isinstance(o, np.integer):
        out.append(str(int(o)))
    else:
        text = json.dumps(o)
        out.append(text if not isinstance(o, float) or math.isfinite(o) else json.dumps(text))
    if len(out) >= _FLUSH_PARTS:
        write("".join(out))
        out.clear()


def json_write(obj: Any, indent: int, write: Callable[[str], Any]) -> None:
    """Hand ``write`` the text of ``json.dumps(obj, sort_keys=True,
    indent=indent)`` in order, in chunks, where each Device in ``obj`` is
    written as its ``_device_tree``, each matrix as nested [re, im] pairs,
    row-major (the format ``matcore.matrix_from_pairs`` reads), each
    ``_Records`` as its list of records, tuples as lists and numpy integers
    as ints.  A NaN or infinite float is written as the string of its name,
    so strict JSON parsers, which refuse the bare tokens NaN and Infinity,
    read the text.

    One walk of ``obj`` (``_json_parts``) appends short strings to one list:
    dicts by sorted keys, matrices in bulk (``matcore.matrix_json_parts``)
    and ``_Records`` in bulk blocks of ``_RECORD_BLOCK`` (2^12) records
    (``_Records.json_blocks``) at the walk's indentation, other scalars
    through ``json.dumps``.  Each separator and key text is kept once,
    however often it is written.  Once the list holds ``_FLUSH_PARTS``
    (2^14) parts, and between two blocks of records, their join is one
    chunk: the walk holds at most that many parts plus one bulk leaf or
    block, a few hundred kB, however large the text.  Each chunk is freed
    once the sink returns.  Runs that write the same text spread in peak
    resident memory no more than when it was joined whole (the medians of
    repeated ``suites`` benchmark invocations agree within 0.02 MB), so
    chunks do not leave that peak depending on where the C heap placed
    them.  An object the walk cannot write raises
    after the chunks before it were written.
    """
    out: list[str] = []
    _json_parts(obj, "", " " * indent, out, {}, write)
    if out:
        write("".join(out))


def device_from_dict(data: Mapping) -> Device:
    meas: dict[Letter, dict[Letter, np.ndarray]] = {}
    unis: dict[Letter, np.ndarray] = {}
    for entry in data["inputs"]:
        a = _letter_from_json(entry["letter"])
        meas[a] = {
            _letter_from_json(p["output"]): matcore.matrix_from_pairs(p["matrix"])
            for p in entry["projectors"]
        }
        if "unitary" in entry:
            unis[a] = matcore.matrix_from_pairs(entry["unitary"])
    outputs = None
    if "output_alphabet" in data:
        outputs = [_letter_from_json(x) for x in data["output_alphabet"]]
    return make_device(
        kind=data["kind"],
        dims=data["dims"],
        state=matcore.matrix_from_pairs(data["phi"]),
        measurements=meas,
        unitaries=unis,
        input_alphabet=list(meas),
        output_alphabet=outputs,
        name=data.get("name", ""),
    )


def save_device(d: Device, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json_write(d, 1, fh.write)
        fh.write("\n")


def _load(path, from_dict, error: type[ValueError]):
    """``from_dict`` of the JSON file at ``path``.  A file that is not JSON,
    or whose structure ``from_dict`` cannot read, raises ``error`` naming the
    path.  An error that carries a ``report`` (a well-formed game that breaks
    a rule) passes through; a device is returned unvalidated."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_dict(json.load(fh))
        except KeyError as exc:
            raise error(f"malformed file {str(path)!r}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            if getattr(exc, "report", None) is not None:
                raise
            raise error(f"malformed file {str(path)!r}: {exc}") from exc


def load_device(path) -> Device:
    return _load(path, device_from_dict, DeviceError)
