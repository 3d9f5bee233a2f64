"""The e2e tracer's two stubs, :mod:`.executor` and :mod:`.mining`.

Every pass — triage mining, batch detection, archive scans — runs in
the calling process at any ``workers`` value: the fork pool, its
shared-memory staging and the SON two-pass each lost to the serial
path on 2 vCPUs (ROADMAP item 7). The package exports nothing.
"""
