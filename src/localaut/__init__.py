"""Verification and recovery toolkit for automorphisms and 2-local
automorphisms of the classical matrix groups GL_n, SL_n (real and complex)
and U_n, SU_n.

The package decides, with certificates, whether sampled data is consistent
with a single automorphism in canonical form, whether pairs of samples are
interpolable by one, and reconstructs the canonical parameters from oracle
access. Exact rational and Gaussian-rational arithmetic backs every
certified verdict; floating point appears for the unitary groups and C64
input, judged by the fixed tolerances named in `scalars`.

Each public name below is imported from its module on first access, so
`import localaut` loads no submodule until one of its names is read.
"""

import importlib

# home module -> the names the package root exports from it
_EXPORTS = {
    "autos": (
        "CONTRAGREDIENT",
        "SIGMA_CONJ",
        "SIGMA_ID",
        "STANDARD",
        "Automorphism",
        "apply",
        "make_automorphism",
    ),
    "errors": ("LocalautError",),
    "exactlinalg": (),
    "gallery": (
        "GALLERY",
        "Certificate",
        "GalleryEntry",
        "additive_r",
        "build_entry",
        "gl_local_not_global",
        "sign_twist",
        "verify_entry",
    ),
    "localcheck": (
        "MapReport",
        "PairVerdict",
        "SampleMap",
        "check_map",
        "check_pair",
        "samples_from_automorphism",
    ),
    "matrices": (
        "C64",
        "QC",
        "QR",
        "Basis",
        "GroupTag",
        "Mat",
        "build_basis",
        "charpoly",
        "close",
        "det",
        "equal",
        "identity",
        "inv",
        "mat",
        "member",
        "mul",
        "random_gl",
        "random_sl",
        "random_su",
        "random_unitary",
        "smul",
        "trace",
        "transpose",
    ),
    "mullattice": (),
    "recover": (
        "AutomorphismOracle",
        "FunctionOracle",
        "Oracle",
        "RecoveryReport",
        "SampleOracle",
        "SubprocessOracle",
        "default_budget",
        "recover_glnr",
        "recover_sln_common",
        "recover_slnr_short",
        "recover_sun",
        "recover_un",
    ),
    "scalarmaps": (
        "CIRCLE",
        "CSTAR",
        "RSTAR",
        "LatticeFunc",
        "PowerConjFunc",
        "PowerFunc",
        "TableFunc",
        "check_character",
        "det_relation_refutations",
        "evaluate",
    ),
    "scalars": (),
    "serialize": (
        "auto_from_json",
        "auto_to_json",
        "canonical_json",
        "dump_json",
        "group_from_json",
        "group_to_json",
        "load_json",
        "mat_from_json",
        "mat_to_json",
        "mulfunc_from_json",
        "mulfunc_to_json",
        "pretty_json",
        "samples_from_json",
        "samples_to_json",
        "sha256_digest",
    ),
    "similarity": ("simultaneous_similarity", "unitary_intertwiner"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
