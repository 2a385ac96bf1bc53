"""Benchmark workloads: one session type, varied along what decides the work.

Every workload is one headband session of the paper's kind (headers, each
reconstructed and scored against the mouthpiece).  They differ in the input
properties that decide which module does most of the work: how many impacts
there are, how long the session is, whether it is noisy, and whether the
scalogram grids are exported.

Run as a script, this module is the set-up probe: a fresh process that
imports kinereco, then builds and dumps one workload's profile and config::

    python3 perfbench/workloads.py --workload field18 --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    n_impacts: int
    reconstruct_flags: tuple[str, ...]
    gate_pla: bool  # PLA within 5% of truth is only expected on clean input


WORKLOADS = {
    w.name: w for w in (
        # The ROADMAP's reference workload: the bundled 18-header profile at
        # default flags.  Compute-heavy: motion evaluation over the windowed
        # components is about half of simulate, cora_score's shift loop most of
        # evaluate, and the per-event CWT and A3G1 solve a real share of
        # reconstruct.  Burst noise puts PLA error near 30%, so PLA is reported
        # here, not gated.
        Workload("field18", n_impacts=18, reconstruct_flags=(), gate_pla=False),
        # Rare impacts in a long recording, as in real field data: 6 headers
        # 6 s apart over 42.5 s.  I/O-heavy: writing ~50 MB of CSV is about half
        # of simulate and loadtxt most of detect and reconstruct, while the
        # per-event kernels do little.  An optimisation of the kernels should
        # barely move it; one of CSV I/O should move it most.
        Workload("sparse6", n_impacts=6, reconstruct_flags=(), gate_pla=False),
        # Six clean headers 1 s apart with the scalogram export on: the full
        # CWT grid is consumed and written (~39 MB of CSV) rather than two
        # slices, and clean input takes the no-transient branch of the cutoff
        # rule.  A slice-only CWT or a new CSV writer must show here that the
        # export did not slow.  The only workload where PLA is within 5%.
        Workload("export6", n_impacts=6, reconstruct_flags=("--scalograms",),
                 gate_pla=True),
    )
}


def import_kinereco():
    """Import kinereco from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "kinereco" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kinereco sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kinereco

    if Path(kinereco.__file__).resolve().parent != SRC / "kinereco":
        raise SystemExit(f"perfbench: imported kinereco from {kinereco.__file__}")
    return kinereco


def write_inputs(name: str, seed: int, out: Path) -> None:
    """Write the workload's profile.json and config.json into ``out``.

    The bundled profile is copied as is (``seed`` then only seeds the
    simulator noise); generated profiles take ``seed`` for their jitter too.
    """
    from kinereco.synth import (config_to_json_dict, dump_profile,
                                example_session_config,
                                standard_session_profile)

    out.mkdir(parents=True, exist_ok=True)
    profile_path, config_path = out / "profile.json", out / "config.json"
    if name == "field18":
        bundled = SRC / "kinereco" / "profiles"
        shutil.copyfile(bundled / "field_session_18.json", profile_path)
        shutil.copyfile(bundled / "field_config.json", config_path)
        return
    if name == "sparse6":
        profile = standard_session_profile(seed, n_per_tier=2, spacing_s=6.0)
    elif name == "export6":
        profile = standard_session_profile(seed, n_per_tier=2, with_noise=False)
    else:
        raise ValueError(f"unknown workload {name!r}")
    dump_profile(profile, profile_path)
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config_to_json_dict(example_session_config()), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    import_kinereco()
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
