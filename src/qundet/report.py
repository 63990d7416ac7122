"""Run manifests and JSON report emission.

Every JSON report embeds a manifest: the command, its parameters, the
seed when randomness is involved, the package version, wall time, and
a sha256 digest of the canonical result payload so reports can be
diffed and cached by content.  Timings live in the manifest only, so
the digest names the answer, not the run.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


def _version() -> str:
    from qundet import __version__

    return __version__


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: int | None = None
    started: float = 0.0
    # per-stage seconds, reported as "timings_s" when any are recorded
    timings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.started:
            self.started = time.monotonic()

    def wrap(self, result: Any) -> dict:
        """Embed the result under a finalized manifest."""
        canonical = json.dumps(result, sort_keys=True, separators=(",", ":"), allow_nan=False)
        manifest = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": _version(),
            "wall_time_s": round(time.monotonic() - self.started, 6),
            "result_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        }
        if self.timings:
            manifest["timings_s"] = self.timings
        return {"manifest": manifest, "result": result}


def emit(document: dict, json_target: str | None, human_text: str) -> None:
    """Route output: human text by default, JSON to stdout or a file.

    ``json_target`` is None (human text on stdout), "-" (JSON on
    stdout), or a path (JSON written there, note on stderr).  Human
    diagnostics never mix into machine output.  A non-finite float
    raises instead of printing a token that strict JSON parsers reject.
    """
    if json_target is None:
        print(human_text)
        return
    text = json.dumps(document, indent=2, allow_nan=False) + "\n"
    if json_target == "-":
        sys.stdout.write(text)
    else:
        Path(json_target).write_text(text, encoding="utf-8")
        print(f"wrote {json_target}", file=sys.stderr)
    if human_text:
        print(human_text, file=sys.stderr)
