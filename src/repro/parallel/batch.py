"""Batch ReEncrypt with amortized pairing, inline or across a pool.

One attribute revocation makes the server re-encrypt every ciphertext of
every involved owner. The sequential path pays, per ciphertext, one full
pairing ``e(UK1_owner, C')`` plus per-element decode validation. This
module amortizes all of it:

* ``UK1_owner`` is *fixed per owner* across the whole batch, so its
  Miller line coefficients are prepared once
  (:meth:`repro.pairing.group.PairingGroup.prepare_pairing`) and
  replayed against every ciphertext's ``C'`` — ~2/3 of each pairing
  gone;
* the final exponentiations of a whole owner-batch share one modular
  inversion (:meth:`repro.pairing.prepared.PreparedPairing.pair_many`);
* wire-sourced update information is subgroup-validated **per element**
  (:func:`repro.core.serialize.decode_update_infos`) — the cofactor has
  small even factors, so no combined random-linear-combination check is
  sound against small-order residuals — but that validation runs inside
  the workers, off the service's event loop.

Failures stay **per-item**: a version-mismatched or malformed entry
becomes an ``error`` outcome with the library's typed exception; the
rest of the batch is unaffected. A ciphertext already at the update
key's target version reports ``already-current`` — that is what makes a
retried sweep chunk idempotent.

Every path — inline, pooled, and the service sweep — funnels through
the same :func:`repro.core.reencrypt.check_reencrypt_inputs` /
:func:`repro.core.reencrypt.apply_update` pair, so outputs are
bit-identical regardless of pool size.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.attributes import authority_of, involved_authorities
from repro.core.ciphertext import Ciphertext, decode_header, encode_header
from repro.core.keys import CiphertextUpdateInfo, UpdateKey
from repro.core.reencrypt import apply_update, check_reencrypt_inputs
from repro.core.serialize import (
    decode_update_info,
    decode_update_infos,
    decode_update_key,
    encode_update_info,
    encode_update_key,
)
from repro.errors import ReproError, SchemeError, StorageError
from repro.pairing.group import GTElement, PairingGroup
from repro.parallel.pool import CryptoPool, chunked
from repro.system.records import RecordFrame, pack_record, scan_record

#: Outcome statuses.
UPDATED = "updated"
ALREADY_CURRENT = "already-current"
ERROR = "error"

# Typed error codes for raw (cross-process) outcomes — the same strings
# the service's ERROR frames use, minted locally so this layer stays
# below repro.service.
_RAW_ERROR_CODES = (
    ("RevocationError", "revocation"),
    ("PolicyNotSatisfiedError", "policy-not-satisfied"),
    ("UnavailableError", "unavailable"),
    ("StorageError", "storage"),
    ("SchemeError", "scheme"),
    ("AuthorizationError", "authorization"),
    ("PolicyError", "policy"),
    ("IntegrityError", "integrity"),
    ("MathError", "math"),
)


def error_code(exc: ReproError) -> str:
    for name, code in _RAW_ERROR_CODES:
        if any(cls.__name__ == name for cls in type(exc).__mro__):
            return code
    return "protocol"


@dataclass(frozen=True)
class ReencryptOutcome:
    """Per-item result of a batch re-encryption."""

    ciphertext_id: str
    status: str                       # updated | already-current | error
    ciphertext: Ciphertext = None     # the updated ciphertext (if updated)
    error: ReproError = None          # the typed failure (if error)

    @property
    def error_codename(self) -> str:
        return None if self.error is None else error_code(self.error)


def _outcome_error(ciphertext_id: str, exc: ReproError) -> ReencryptOutcome:
    return ReencryptOutcome(ciphertext_id=ciphertext_id, status=ERROR,
                            error=exc)


def _is_already_current(ciphertext: Ciphertext, update_key: UpdateKey,
                        update_info: CiphertextUpdateInfo) -> bool:
    """True when the ciphertext already sits at the key's target version.

    Only an exact match of ciphertext id and version window counts — a
    UI addressed at the wrong ciphertext must surface as an error, not a
    silent skip.
    """
    aid = update_key.aid
    return (
        update_info.aid == aid
        and update_info.ciphertext_id == ciphertext.ciphertext_id
        and ciphertext.versions.get(aid) == update_key.to_version
        and (update_info.from_version, update_info.to_version)
        == (update_key.from_version, update_key.to_version)
    )


def batch_outcomes(group: PairingGroup, ciphertexts, update_key: UpdateKey,
                   update_infos) -> list:
    """The object-level batch core: amortized pairing, per-item errors.

    ``ciphertexts`` and ``update_infos`` are aligned sequences. Returns
    one :class:`ReencryptOutcome` per input, in input order.
    """
    ciphertexts = list(ciphertexts)
    update_infos = list(update_infos)
    if len(ciphertexts) != len(update_infos):
        raise SchemeError(
            "need exactly one update information per ciphertext"
        )
    outcomes = [None] * len(ciphertexts)
    by_owner = {}  # owner id -> [(index, ciphertext, update_info)]
    for index, (ciphertext, update_info) in enumerate(
        zip(ciphertexts, update_infos)
    ):
        if _is_already_current(ciphertext, update_key, update_info):
            outcomes[index] = ReencryptOutcome(
                ciphertext_id=ciphertext.ciphertext_id,
                status=ALREADY_CURRENT,
            )
            continue
        try:
            check_reencrypt_inputs(ciphertext, update_key, update_info)
        except ReproError as exc:
            outcomes[index] = _outcome_error(ciphertext.ciphertext_id, exc)
            continue
        by_owner.setdefault(ciphertext.owner_id, []).append(
            (index, ciphertext, update_info)
        )
    for owner_id, entries in by_owner.items():
        # The fixed first argument of every pairing in this owner-batch:
        # prepare its Miller lines once, replay per ciphertext, and
        # share one inversion across the final exponentiations.
        prepared = group.prepare_pairing(update_key.uk1[owner_id])
        factors = prepared.pair_many(
            [ciphertext.c_prime.point for _, ciphertext, _ in entries]
        )
        group.counter.pairings += len(entries)
        for (index, ciphertext, update_info), factor in zip(entries, factors):
            try:
                updated = apply_update(
                    ciphertext, update_key, update_info,
                    GTElement(group, factor),
                )
            except ReproError as exc:
                outcomes[index] = _outcome_error(
                    ciphertext.ciphertext_id, exc
                )
            else:
                outcomes[index] = ReencryptOutcome(
                    ciphertext_id=ciphertext.ciphertext_id,
                    status=UPDATED,
                    ciphertext=updated,
                )
    return outcomes


# -- raw (bytes-level) jobs: what actually crosses the process boundary ------

# Per-process cache of decoded update keys: group -> {uk raw: UpdateKey}.
# A sweep ships the same UK with every chunk; decoding it once per
# process keeps the per-chunk overhead at a dict lookup. Keyed weakly by
# the group *instance* — never by id(), whose values are reused after
# garbage collection — so a cached key can neither outlive the group its
# elements belong to nor leak into a lookalike group at the same address.
_UK_CACHE = weakref.WeakKeyDictionary()
_UK_CACHE_LIMIT = 8


def _cached_update_key(group: PairingGroup, uk_raw: bytes) -> UpdateKey:
    per_group = _UK_CACHE.get(group)
    if per_group is None:
        per_group = _UK_CACHE[group] = {}
    update_key = per_group.get(uk_raw)
    if update_key is None:
        # Trusted decode: the caller (batch API or sweep dispatcher)
        # validated these bytes before fanning them out.
        update_key = decode_update_key(group, uk_raw, check_subgroup=False)
        if len(per_group) >= _UK_CACHE_LIMIT:
            per_group.pop(next(iter(per_group)))
        per_group[uk_raw] = update_key
    return update_key


def _decode_ui_batch(group: PairingGroup, ui_raws, validate: bool) -> list:
    """Decode UIs; returns aligned ``[(info | None, exc | None)]``.

    Validated decodes run as one batch with a shared subgroup check;
    if the batch fails (one malformed entry), each UI is re-decoded
    individually so only the offending items turn into errors.
    """
    ui_raws = list(ui_raws)
    if validate:
        try:
            return [(info, None)
                    for info in decode_update_infos(group, ui_raws)]
        except ReproError:
            pass  # isolate the culprit(s) below
    results = []
    for raw in ui_raws:
        try:
            results.append((
                decode_update_info(group, raw, check_subgroup=validate),
                None,
            ))
        except ReproError as exc:
            results.append((None, exc))
    return results


def reencrypt_chunk_raw(group: PairingGroup, uk_raw: bytes, items,
                        validate_uis: bool = False) -> list:
    """One pooled chunk of ciphertext-level work, bytes in / bytes out.

    ``items`` is ``[(ciphertext_bytes, ui_bytes), ...]``; returns
    ``[(ciphertext_id, status, payload), ...]`` where ``payload`` is the
    updated ciphertext bytes for ``updated``, ``None`` for
    ``already-current`` and ``(code, message)`` for ``error``. Runs
    identically inline and in a worker; nothing unpicklable crosses the
    boundary (the group ships as parameter ints, see
    ``PairingGroup.__reduce__``).
    """
    update_key = _cached_update_key(group, uk_raw)
    decoded = []
    for ct_raw, _ in items:
        # Trusted decode: batch callers hold the objects these bytes
        # came from; sweep callers read them from the digest-verified
        # store, which validated them at ingest.
        decoded.append(Ciphertext.from_bytes(group, ct_raw, validate=False))
    uis = _decode_ui_batch(group, [ui_raw for _, ui_raw in items],
                           validate_uis)
    ciphertexts, infos, slots = [], [], []
    results = [None] * len(items)
    for index, (ciphertext, (info, exc)) in enumerate(zip(decoded, uis)):
        if exc is not None:
            results[index] = (ciphertext.ciphertext_id, ERROR,
                              (error_code(exc), str(exc)))
            continue
        ciphertexts.append(ciphertext)
        infos.append(info)
        slots.append(index)
    outcomes = batch_outcomes(group, ciphertexts, update_key, infos)
    for index, outcome in zip(slots, outcomes):
        if outcome.status == UPDATED:
            payload = outcome.ciphertext.to_bytes()
        elif outcome.status == ALREADY_CURRENT:
            payload = None
        else:
            payload = (outcome.error_codename, str(outcome.error))
        results[index] = (outcome.ciphertext_id, outcome.status, payload)
    return results


class _StoredRow:
    """An LSSS row a re-key leaves alone, kept as its stored encoding;
    :meth:`Ciphertext.to_bytes` copies it out verbatim.

    It is not a group element: a ciphertext holding one may go only
    through :func:`batch_outcomes` and ``to_bytes``, which never read a
    row outside the update authority's (see
    :func:`repro.core.reencrypt.apply_update`).
    """

    __slots__ = ("raw",)

    def __init__(self, raw: bytes):
        self.raw = raw

    def to_bytes(self) -> bytes:
        return self.raw


def _decode_for_update(group: PairingGroup, data: bytes,
                       aid: str) -> Ciphertext:
    """A stored ciphertext decoded only as far as re-keying ``aid``
    touches it: ``C``, ``C'`` and the rows of ``aid``'s attributes.

    Every other row stays a :class:`_StoredRow`. Decodes are trusted:
    the bytes come from the digest-verified store, whose elements were
    subgroup-checked at ingest. Private to :func:`reencrypt_records_raw`,
    which only ever re-encodes the result.
    """
    ciphertext_id, owner_id, matrix, versions, offset = decode_header(data)
    gt_len, g1_len = group.gt_bytes, group.g1_bytes
    if len(data) - offset != gt_len + g1_len * (1 + matrix.n_rows):
        raise SchemeError("ciphertext body has the wrong length")
    c = group.decode_gt(data[offset:offset + gt_len], check_subgroup=False)
    offset += gt_len
    c_prime = group.decode_g1(data[offset:offset + g1_len],
                              check_subgroup=False)
    rows = []
    for label in matrix.row_labels:
        offset += g1_len
        raw = data[offset:offset + g1_len]
        rows.append(group.decode_g1(raw, check_subgroup=False)
                    if authority_of(label) == aid else _StoredRow(raw))
    return Ciphertext(
        ciphertext_id=ciphertext_id,
        owner_id=owner_id,
        c=c,
        c_prime=c_prime,
        c_rows=tuple(rows),
        matrix=matrix,
        involved_aids=involved_authorities(matrix.row_labels),
        versions=versions,
    )


def _rewrite_record(frame: RecordFrame, changed: dict) -> bytes:
    """The framed record with each ``changed`` component (name ->
    updated ciphertext) swapped in; byte for byte the whole-record
    re-encode ``StoredRecord.from_bytes(blob).with_component(...)
    .to_bytes()``, for every blob.

    Components go out in name order. An untouched component gets its
    ABE header re-emitted in canonical form, while its group elements
    and symmetric body are copied verbatim (element encodings are
    canonical by construction: the decoder accepts only reduced field
    elements). A blob stored in another encoding, say a repair that kept
    the bytes it was sent, is therefore normalized like the re-encode
    does it.
    """
    encoded = {}
    for name, slot in frame.components.items():
        if name in changed:
            abe = changed[name].to_bytes()
        else:
            *header, offset = decode_header(slot.abe)
            abe = encode_header(*header) + slot.abe[offset:]
        encoded[name] = slot.with_abe(abe)
    return pack_record(frame.record_id, frame.owner_id, encoded)


def reencrypt_records_raw(group: PairingGroup, uk_raw: bytes, tasks,
                          validate_uis: bool = True) -> list:
    """One pooled chunk of the service sweep: whole records in, out.

    ``tasks`` is ``[(record_bytes, [(component_name, ui_bytes), ...])]``.
    Returns one ``(new_record_bytes_or_None, item_results)`` per task,
    where ``item_results`` is ``[(ciphertext_id, status, code, message)]``
    (``code``/``message`` are ``None`` unless ``status == "error"``).
    ``new_record_bytes`` is ``None`` when no component changed.

    Record bytes come from the digest-verified store: each is framed
    without decoding, only the targeted ciphertexts' ``C``, ``C'`` and
    re-keyed rows are decoded (trusted), and the updated ciphertexts
    are written back into the record rebuilt from its frame — the same
    bytes a whole-record decode and re-encode gives. Update information
    arrived over the wire and is batch-validated here (off the server's
    event loop). The update key must have been validated by the caller
    before fan-out.
    """
    update_key = _cached_update_key(group, uk_raw)
    frames = [scan_record(record_raw) for record_raw, _ in tasks]
    ui_raws = [ui_raw for _, targets in tasks for _, ui_raw in targets]
    uis = iter(_decode_ui_batch(group, ui_raws, validate_uis))
    # entry: (task index, component name, partial ciphertext, decoded UI)
    entries = []
    item_results = [[] for _ in tasks]
    for task_index, (frame, (_, targets)) in enumerate(zip(frames, tasks)):
        for component_name, _ in targets:
            info, exc = next(uis)
            slot = frame.components.get(component_name)
            if slot is None:
                exc = StorageError(
                    f"record {frame.record_id!r} has no component "
                    f"{component_name!r}"
                )
            if exc is not None:
                ciphertext_id = (
                    "?" if info is None and slot is None
                    else (info.ciphertext_id if info is not None
                          else slot.ciphertext_id)
                )
                item_results[task_index].append(
                    (ciphertext_id, ERROR, error_code(exc), str(exc))
                )
                continue
            entries.append((
                task_index, component_name,
                _decode_for_update(group, slot.abe, update_key.aid), info,
            ))
    outcomes = batch_outcomes(
        group,
        [ciphertext for _, _, ciphertext, _ in entries],
        update_key,
        [info for _, _, _, info in entries],
    )
    changed = [{} for _ in tasks]  # per task: name -> updated ciphertext
    for (task_index, component_name, _, _), outcome in zip(entries,
                                                           outcomes):
        if outcome.status == UPDATED:
            changed[task_index][component_name] = outcome.ciphertext
            item_results[task_index].append(
                (outcome.ciphertext_id, UPDATED, None, None)
            )
        elif outcome.status == ALREADY_CURRENT:
            item_results[task_index].append(
                (outcome.ciphertext_id, ALREADY_CURRENT, None, None)
            )
        else:
            item_results[task_index].append(
                (outcome.ciphertext_id, ERROR, outcome.error_codename,
                 str(outcome.error))
            )
    return [
        (
            _rewrite_record(frame, updates) if updates else None,
            results,
        )
        for frame, updates, results in zip(frames, changed, item_results)
    ]


# -- the public batch API -----------------------------------------------------

def reencrypt_batch(group: PairingGroup, ciphertexts,
                    update_key: UpdateKey, update_infos, *,
                    pool: CryptoPool = None, chunk_size: int = 32) -> list:
    """Re-encrypt many ciphertexts under one update key.

    Returns one :class:`ReencryptOutcome` per ciphertext, in order.
    With no pool (or an inline pool) the batch runs in-process; with a
    live :class:`CryptoPool` the items are encoded, fanned out in
    chunks, and decoded back — outputs are bit-identical either way,
    for any pool size and chunk size.
    """
    ciphertexts = list(ciphertexts)
    update_infos = list(update_infos)
    if len(ciphertexts) != len(update_infos):
        raise SchemeError(
            "need exactly one update information per ciphertext"
        )
    if pool is None or pool.inline:
        return batch_outcomes(group, ciphertexts, update_key, update_infos)
    uk_raw = encode_update_key(group, update_key)
    items = [
        (ciphertext.to_bytes(), encode_update_info(update_info))
        for ciphertext, update_info in zip(ciphertexts, update_infos)
    ]
    raw_results = pool.map_jobs(
        reencrypt_chunk_raw,
        [(group, uk_raw, chunk) for chunk in chunked(items, chunk_size)],
    )
    outcomes = []
    for (ciphertext_id, status, payload), ciphertext in zip(
        (result for chunk in raw_results for result in chunk), ciphertexts
    ):
        if status == UPDATED:
            outcomes.append(ReencryptOutcome(
                ciphertext_id=ciphertext_id,
                status=UPDATED,
                ciphertext=Ciphertext.from_bytes(group, payload,
                                                 validate=False),
            ))
        elif status == ALREADY_CURRENT:
            outcomes.append(ReencryptOutcome(
                ciphertext_id=ciphertext_id, status=ALREADY_CURRENT,
            ))
        else:
            code, message = payload
            outcomes.append(_outcome_error(
                ciphertext_id, _EXCEPTION_FOR_CODE.get(code, SchemeError)(
                    message
                )
            ))
    return outcomes


def _exception_table() -> dict:
    from repro import errors

    return {
        "revocation": errors.RevocationError,
        "policy-not-satisfied": errors.PolicyNotSatisfiedError,
        "unavailable": errors.UnavailableError,
        "storage": errors.StorageError,
        "scheme": errors.SchemeError,
        "authorization": errors.AuthorizationError,
        "policy": errors.PolicyError,
        "integrity": errors.IntegrityError,
        "math": errors.MathError,
    }


_EXCEPTION_FOR_CODE = _exception_table()
