"""The diagnostic code taxonomy (documented in docs/methodology.md §4e).

Codes are stable, machine-readable identifiers grouped by the artifact
they describe:

* ``E0xx`` — tool/CLI level (internal errors, unusable invocations);
* ``E1xx`` — netlist / structural Verilog;
* ``E2xx`` — zone configuration and stimuli;
* ``E3xx`` — FMEA worksheet;
* ``E4xx`` — campaign store.

Each entry maps the code to a short kebab-case title (shown in machine
output) and a default remediation hint (shown when the emitting site
does not provide a more specific one).  Severity is **not** part of the
code: the same code may be an error on one surface and a warning on
another (e.g. an orphan blob is an error for ``store fsck`` but only a
warning inside ``doctor``).
"""

from __future__ import annotations

#: code -> (title, default remediation hint)
CODES: dict[str, tuple[str, str]] = {
    # ------------------------------------------------------------ E0xx
    "E001": ("internal-error",
             "re-run with SOCFMEA_DEBUG=1 to see the full traceback "
             "and report the issue"),
    "E002": ("nothing-to-audit",
             "pass a project directory or at least one of --netlist/"
             "--zones/--worksheet/--stimuli/--store"),
    # ------------------------------------------------------------ E1xx
    "E100": ("netlist-unreadable",
             "check the path and that the file is a structural "
             "Verilog netlist"),
    "E101": ("no-module-found",
             "the file contains no `module ... endmodule` block in "
             "the structural subset emitted by `soc-fmea verilog`"),
    "E102": ("bad-instance-arity",
             "the primitive cell was instantiated with the wrong pin "
             "count; re-emit the netlist or fix the instance"),
    "E103": ("malformed-net-reference",
             "instance pins must be sanitized `n<id>` wires"),
    "E104": ("malformed-flop-instance",
             "DFF cells need at least (clk, q, d) pins plus one per "
             "E/R suffix"),
    "E105": ("net-index-out-of-range",
             "the instance references a wire with no `wire n<id>;` "
             "declaration"),
    "E110": ("unknown-cell-type",
             "the cell is not part of the structural interchange "
             "subset and was ignored"),
    "E111": ("incomplete-memory-block",
             "a `// MEM` header was not followed by addr/wdata/rdata "
             "pin comments"),
    "E120": ("combinational-loop",
             "the netlist cannot be levelized into a feed-forward "
             "program; break the cycle (e.g. insert a flop) or fix "
             "the extraction"),
    "E121": ("kernel-build-failed",
             "the compiled kernel needs a C compiler reachable as `cc` "
             "on PATH (gcc or clang, e.g. `apt install gcc`) and a "
             "writable ${XDG_CACHE_HOME:-~/.cache}/repro; the message "
             "names the failing step"),
    # ------------------------------------------------------------ E2xx
    "E200": ("unknown-zone",
             "the zone name does not match any extracted sensible "
             "zone of this netlist"),
    "E201": ("zone-config-unreadable",
             "the zone configuration is not valid JSON of the "
             "`soc-fmea export` schema"),
    "E202": ("zone-config-bad-field",
             "fix the named field or re-export the configuration"),
    "E203": ("zone-unknown-net",
             "the zone definition references a net name absent from "
             "the netlist — re-extract after netlist edits"),
    "E204": ("zone-kind-mismatch",
             "the stored zone kind differs from the extracted one"),
    "E205": ("unknown-observation-point",
             "the observation point is not an output of this netlist"),
    "E210": ("stimuli-unreadable",
             "the stimuli file is not valid JSON of the "
             "`{\"schema\": 1, \"cycles\": [...]}` form"),
    "E211": ("stimuli-unknown-signal",
             "the workload drives a signal that is not a primary "
             "input — typically a typo or a stale name after a "
             "netlist edit"),
    "E212": ("stimuli-undriven-input",
             "a primary input is never driven and would silently hold "
             "its reset value for the whole workload"),
    "E213": ("stimuli-bad-value",
             "stimuli values must be integers"),
    # ------------------------------------------------------------ E3xx
    "E300": ("worksheet-unreadable",
             "the worksheet is not a valid JSON object"),
    "E301": ("worksheet-schema-unsupported",
             "the schema version has no registered migration; "
             "re-export the worksheet with this tool version"),
    "E302": ("worksheet-missing-field",
             "add the named field (see fmea/io.py for the schema)"),
    "E303": ("worksheet-bad-type",
             "the named field has the wrong JSON type"),
    "E304": ("worksheet-bad-enum",
             "the named field must be one of the documented "
             "enumeration values"),
    "E305": ("worksheet-bad-claim",
             "each claim needs `technique`, `ddf` and `software` "
             "fields"),
    "E310": ("worksheet-zone-not-in-config",
             "the worksheet prices a zone the zone configuration "
             "does not define"),
    # ------------------------------------------------------------ E4xx
    "E400": ("store-unreadable",
             "the path is not a campaign store (missing store.db)"),
    "E401": ("corrupt-blob",
             "the object no longer matches its content address; "
             "`store fsck --repair` deletes it so the next campaign "
             "recomputes it"),
    "E402": ("golden-missing-blob",
             "the golden index points at a blob that does not exist; "
             "`store fsck --repair` drops the index entry"),
    "E403": ("run-missing-golden",
             "a recorded run references a golden blob that does not "
             "exist; `store fsck --repair` clears the reference"),
    "E404": ("dangling-run-rows",
             "run-scoped rows reference a run that no longer exists; "
             "`store fsck --repair` deletes them"),
    "E405": ("unparsable-outcome",
             "the cached outcome row cannot be decoded; `store fsck "
             "--repair` deletes it so the fault is re-simulated"),
    "E406": ("dangling-anomaly",
             "a quarantine record points at a fault no recorded run "
             "knows; `store fsck --repair` deletes it"),
    "E407": ("orphan-blob",
             "the blob is referenced by no golden entry or run; "
             "`store fsck --repair` reclaims it"),
    "E408": ("interrupted-run",
             "a run is still marked `running` — it was killed; "
             "re-running the campaign resumes and completes it"),
    "E409": ("store-busy",
             "another process held the store's write lock past the "
             "retry budget; let the other campaign finish or point "
             "this one at a different --store"),
    "E410": ("stale-job-lease",
             "a job's lease deadline passed without a heartbeat — "
             "its worker died; any `soc-fmea serve` re-claims it, or "
             "`store fsck --repair` releases it back to the queue"),
    "E411": ("orphan-job-row",
             "a job references a campaign run the store no longer "
             "records; `store fsck --repair` clears the reference"),
    "E412": ("dead-letter-evidence-gone",
             "a dead-letter job's recorded run was garbage-collected; "
             "`store fsck --repair` deletes the job row — re-submit "
             "if the campaign is still wanted"),
    "E413": ("store-out-of-space",
             "the disk under the store is full; free space and re-run "
             "— the store is consistent and resumes warm, and queued "
             "jobs pause rather than dead-letter"),
    "E414": ("store-io-error",
             "the device under the store reported an i/o error; check "
             "the filesystem, then `store fsck` — checksummed blobs "
             "and WAL transactions bound the damage"),
    # ------------------------------------------------- E42x campaign API
    "E420": ("api-bad-request",
             "the request body is not valid JSON of the documented "
             "shape, or a field failed validation; see the attached "
             "diagnostics"),
    "E421": ("api-unauthorized",
             "pass a valid token in the `Authorization: Bearer` "
             "header (tokens live in the server's --auth file)"),
    "E422": ("api-forbidden",
             "the token is valid but not entitled to the requested "
             "project; use the project the token maps to"),
    "E423": ("api-not-found",
             "no such route or job id"),
    "E424": ("api-payload-too-large",
             "the request body exceeds the server's size bound; "
             "campaign submissions are small JSON documents — check "
             "what the client is sending"),
    "E425": ("api-timeout",
             "the client did not deliver a complete request in time; "
             "retry over a healthier connection"),
    "E426": ("api-quota-exceeded",
             "the project is at its queued-job or faults-per-day "
             "quota; wait for jobs to finish (see Retry-After) or "
             "raise the quota in the server's --auth file"),
    "E427": ("api-overloaded",
             "the queue is past its depth watermark; the server is "
             "shedding load — retry after the Retry-After delay"),
    "E428": ("api-unavailable",
             "the store under the server is paused on a disk fault "
             "(full disk / i/o error); the queue holds jobs instead "
             "of dead-lettering — retry after the Retry-After delay"),
    # ---------------------------------------- E43x campaign request
    "E430": ("request-bad-value",
             "the named campaign parameter is out of range; fix the "
             "flag (CLI) or JSON field (API) and re-submit"),
    "E431": ("request-unknown-variant",
             "the design variant is not one of the registered "
             "subsystem variants"),
}


def describe(code: str) -> str:
    """Short kebab-case title of a code (``unknown-code`` fallback)."""
    entry = CODES.get(code)
    return entry[0] if entry else "unknown-code"


def default_hint(code: str) -> str | None:
    entry = CODES.get(code)
    return entry[1] if entry else None


def is_known(code: str) -> bool:
    return code in CODES
