"""Run-integrity layer: manifests, replay audit, and spool fsck.

PR 9's resilience layer made runs *survive* faults; this package makes
them *provable* — every persisted artifact carries a digest, every run
can emit a manifest of what it computed, and two operator commands
(``repro audit``, ``repro spool fsck``) verify and repair after the
fact. See :mod:`repro.integrity.manifest` for the digest contract.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "audit": [
        "AuditCheck", "AuditReport", "audit_cache_dir", "audit_checkpoint_dir",
        "audit_spool_run"],
    "fsck": ["Finding", "fsck_spool", "list_quarantine"],
    "manifest": [
        "MANIFEST_NAME", "MANIFEST_VERSION", "RunManifest", "blob_digest",
        "canonical", "canonical_scalar", "identity_diff", "load_sealed",
        "pack_record", "pickle_digest", "record_digest", "seal_record",
        "unpack_record", "verify_sealed", "write_sealed"],
})
