"""Verification and recovery toolkit for automorphisms and 2-local
automorphisms of the classical matrix groups GL_n, SL_n (real and complex)
and U_n, SU_n.

The package decides, with certificates, whether sampled data is consistent
with a single automorphism in canonical form, whether pairs of samples are
interpolable by one, and reconstructs the canonical parameters from oracle
access. Exact rational and Gaussian-rational arithmetic backs every
certified verdict; floating point appears only for the unitary groups and
is always reported with its tolerance.
"""

from .autos import (
    CONTRAGREDIENT,
    SIGMA_CONJ,
    SIGMA_ID,
    STANDARD,
    Automorphism,
    apply,
    make_automorphism,
)
from .errors import LocalautError
from .gallery import (
    GALLERY,
    Certificate,
    GalleryEntry,
    additive_r,
    build_entry,
    gl_local_not_global,
    sign_twist,
    verify_entry,
)
from .localcheck import (
    MapReport,
    PairVerdict,
    SampleMap,
    check_map,
    check_pair,
    samples_from_automorphism,
)
from .matrices import (
    C64,
    QC,
    QR,
    Basis,
    GroupTag,
    Mat,
    build_basis,
    charpoly,
    close,
    det,
    equal,
    identity,
    inv,
    mat,
    member,
    mul,
    random_gl,
    random_sl,
    random_su,
    random_unitary,
    smul,
    trace,
    transpose,
)
from .recover import (
    AutomorphismOracle,
    FunctionOracle,
    Oracle,
    RecoveryReport,
    SampleOracle,
    SubprocessOracle,
    default_budget,
    recover_glnr,
    recover_sln_common,
    recover_slnr_short,
    recover_sun,
    recover_un,
)
from .scalarmaps import (
    CIRCLE,
    CSTAR,
    RSTAR,
    LatticeFunc,
    PowerConjFunc,
    PowerFunc,
    TableFunc,
    check_character,
    det_relation_refutations,
    evaluate,
)
from .serialize import (
    auto_from_json,
    auto_to_json,
    canonical_json,
    dump_json,
    group_from_json,
    group_to_json,
    load_json,
    mat_from_json,
    mat_to_json,
    mulfunc_from_json,
    mulfunc_to_json,
    pretty_json,
    samples_from_json,
    samples_to_json,
    sha256_digest,
)
from .similarity import simultaneous_similarity, unitary_intertwiner

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
