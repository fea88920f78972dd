"""Ciphertexts of the Yang-Jia scheme, with serialization.

A ciphertext (Section V-B, Phase 3) is::

    CT = ( C  = m · (∏_{k∈I_A} e(g,g)^{α_k})^s,
           C' = g^{βs},
           C_i = g^{r·λ_i} · PK_{ρ(i)}^{-βs}   for each LSSS row i )

plus the access structure (M, ρ), which "the ciphertext implicitly
contains". We also carry per-authority version numbers so stale keys are
detected instead of silently mis-decrypting, and a ciphertext id so
update information can reference it.

Serialized layout: a JSON header (policy string, owner, versions, id)
length-prefixed, followed by the fixed-width group elements. The LSSS
matrix is *not* serialized — it is recomputed deterministically from the
policy string on decode, which keeps the wire size at the paper's
``|GT| + (l+1)|G|``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import SchemeError
from repro.pairing.group import G1Element, GTElement, PairingGroup
from repro.policy.lsss import LsssMatrix, lsss_from_policy


def _split_header(data: bytes) -> tuple:
    """The JSON header object and the offset where the elements start."""
    if len(data) < 4:
        raise SchemeError("truncated ciphertext")
    header_len = int.from_bytes(data[:4], "big")
    if len(data) < 4 + header_len:
        raise SchemeError("truncated ciphertext header")
    try:
        header = json.loads(data[4:4 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SchemeError("malformed ciphertext header") from exc
    if not isinstance(header, dict):
        raise SchemeError("malformed ciphertext header")
    return header, 4 + header_len


def decode_header(data: bytes) -> tuple:
    """``(ciphertext id, owner id, matrix, versions, element offset)``
    of an encoding, validated exactly as :meth:`Ciphertext.from_bytes`
    validates it; no group element is read."""
    header, offset = _split_header(data)
    try:
        ciphertext_id = header["id"]
        owner_id = header["owner"]
        policy = header["policy"]
        versions = header["versions"]
    except KeyError as exc:
        raise SchemeError("malformed ciphertext header") from exc
    if not all(isinstance(value, str)
               for value in (ciphertext_id, owner_id, policy)):
        raise SchemeError("malformed ciphertext header")
    if not isinstance(versions, dict) or not all(
        isinstance(aid, str)
        and isinstance(v, int) and not isinstance(v, bool)
        for aid, v in versions.items()
    ):
        raise SchemeError("malformed ciphertext header")
    method = header.get("lsss", "expand")
    if not isinstance(method, str):
        raise SchemeError("malformed ciphertext header")
    matrix = lsss_from_policy(policy, threshold_method=method)
    return ciphertext_id, owner_id, matrix, dict(versions), offset


def encode_header(ciphertext_id: str, owner_id: str, matrix: LsssMatrix,
                  versions: dict) -> bytes:
    """The canonical length-prefixed JSON header
    :meth:`Ciphertext.to_bytes` writes ahead of the elements."""
    header = json.dumps(
        {
            "id": ciphertext_id,
            "owner": owner_id,
            "policy": str(matrix.policy),
            "lsss": matrix.method,
            "versions": dict(sorted(versions.items())),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return len(header).to_bytes(4, "big") + header


@dataclass(frozen=True)
class Ciphertext:
    """One CP-ABE ciphertext (the encrypted content key, per Fig. 2)."""

    ciphertext_id: str
    owner_id: str
    c: GTElement            # C
    c_prime: G1Element      # C'
    c_rows: tuple           # C_i, one per LSSS row, in row order
    matrix: LsssMatrix      # (M, ρ)
    involved_aids: frozenset
    versions: dict          # aid -> authority version at encryption time

    @property
    def n_rows(self) -> int:
        return len(self.c_rows)

    @property
    def policy_string(self) -> str:
        return str(self.matrix.policy)

    def version_of(self, aid: str) -> int:
        try:
            return self.versions[aid]
        except KeyError:
            raise SchemeError(
                f"authority {aid!r} is not involved in ciphertext "
                f"{self.ciphertext_id!r}"
            ) from None

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        body = self.c.to_bytes() + self.c_prime.to_bytes()
        for row in self.c_rows:
            body += row.to_bytes()
        return encode_header(self.ciphertext_id, self.owner_id,
                             self.matrix, self.versions) + body

    @classmethod
    def from_bytes(cls, group: PairingGroup, data: bytes, *,
                   validate: bool = True) -> "Ciphertext":
        """Decode; ``validate=False`` skips the per-element subgroup
        checks and is reserved for bytes this process already validated
        (store-internal re-reads are digest-verified and were fully
        checked when they first crossed the wire)."""
        ciphertext_id, owner_id, matrix, versions, offset = decode_header(
            data
        )
        gt_len, g1_len = group.gt_bytes, group.g1_bytes
        expected = gt_len + g1_len * (1 + matrix.n_rows)
        if len(data) - offset != expected:
            raise SchemeError("ciphertext body has the wrong length")
        c = group.decode_gt(data[offset:offset + gt_len],
                            check_subgroup=validate)
        offset += gt_len
        c_prime = group.decode_g1(data[offset:offset + g1_len],
                                  check_subgroup=validate)
        offset += g1_len
        rows = []
        for _ in range(matrix.n_rows):
            rows.append(group.decode_g1(data[offset:offset + g1_len],
                                        check_subgroup=validate))
            offset += g1_len
        from repro.core.attributes import involved_authorities

        return cls(
            ciphertext_id=ciphertext_id,
            owner_id=owner_id,
            c=c,
            c_prime=c_prime,
            c_rows=tuple(rows),
            matrix=matrix,
            involved_aids=involved_authorities(matrix.row_labels),
            versions=versions,
        )

    @staticmethod
    def peek(data: bytes) -> tuple:
        """``(ciphertext id, element bytes)`` from the framing alone.

        No group element is decoded and nothing is checked beyond the
        header; the element-byte count is what follows the header, so
        it equals :meth:`element_size_bytes` only for bytes that
        already passed a full decode (the store's own records).
        """
        header, offset = _split_header(data)
        ciphertext_id = header.get("id")
        if not isinstance(ciphertext_id, str):
            raise SchemeError("malformed ciphertext header")
        return ciphertext_id, len(data) - offset

    def element_size_bytes(self, group: PairingGroup) -> int:
        """Size of the group-element payload only: |GT| + (l+1)·|G|.

        This is the quantity Tables II-IV count (headers/policy strings
        are bookkeeping both schemes share equally).
        """
        return group.gt_bytes + (self.n_rows + 1) * group.g1_bytes
