"""secexp: secrecy bounds and exponents at exactly enumerable scale.

Exact L1-distance secrecy evaluation for universal-hashing privacy
amplification (with and without side information), source-specialized
uniform random number generation, wiretap channel codes, and one-way secret
key distillation, together with the matching closed-form bounds and
asymptotic exponents.  All logarithms are natural.
"""

from .dists import (
    Alphabet,
    AlphabetMismatchError,
    InvariantError,
    JointDist,
    SizeLimitError,
    SubDist,
    TypeClass,
    conditional_shannon_entropy,
    d1_uniformity,
    enumerate_types,
    iid_extend,
    kl_divergence,
    l1_distance,
    l2_distance,
    range_alphabet,
    renyi,
    renyi_tilde,
    renyi_tilde_derivative,
    shannon_entropy,
    smooth_truncate,
    tilt,
)
from .exponents import (
    ExponentResult,
    conditional_exponent_phi,
    conditional_exponent_pinsker,
    cond_renyi_tilde,
    cramer_exponent,
    critical_rate,
    divergence_exponent,
    holenstein_renner_exponents,
    phi_cond,
    universal_exponent,
    universal_hash_d1_bound,
)
from .gf import Field, Module
from .hashing import (
    ExplicitFamily,
    FullyRandomFamily,
    HashFamily,
    LinearFamily,
    ToeplitzFamily,
    check_balanced,
    check_strongly_universal2,
    check_universal2,
)
from .intrinsic import (
    SpecializedMap,
    build_specialized,
    check_specialized_identity,
    heavy_mass_lower_bound,
    specialized_d1_bound,
    specialized_exponent,
    specialized_map_d1,
)
from .privacy import (
    best_subset_lower_bound,
    d1_conditional,
    d1_conditional_prime,
    d1_hashed,
    expected_collision_mass,
    expected_d1,
    expected_d1_conditional,
    pushforward,
    subset_lower_bound,
)
from .distill import CorrelationTriple, channels_from_joint, run_distillation
from .wiretap import (
    Channel,
    LinearCode,
    WiretapCode,
    additive_identities,
    coset_code,
    coset_ensemble_d1,
    e_phi,
    e_psi,
    error_prob,
    eve_distinguishability,
    holder_ordering,
    mutual_information,
    phi_channel,
    psi_channel,
    random_wiretap_code,
    wiretap_ensemble,
    wiretap_ensemble_exact,
)

__version__ = "0.1.0"
