(** Canonical table of complex numbers.

    Decision-diagram edge weights are interned here so that numerically equal
    weights (up to the table tolerance) are represented by one physically
    shared {!Cnum.t} with a unique tag.  This is the mechanism that makes
    node hash-consing and compute-cache keys exact integer comparisons, and
    it also implements the machine-accuracy merging discussed in the paper's
    reference [21] (Zulehner et al., DATE 2019). *)

type t

val create : ?tolerance:float -> unit -> t
(** Fresh table; [0] and [1] are pre-registered under {!zero_tag} and
    {!one_tag}.  [tolerance] (default [1e-12]) is the component-wise merging
    radius — tight enough that legitimately distinct amplitudes of deep
    circuits never collide (a coarser radius makes wrong merges that
    fragment DD sharing), wide enough to absorb floating-point noise. *)

val zero_tag : int
(** Tag of the canonical zero, [0]. *)

val one_tag : int
(** Tag of the canonical one, [1]. *)

val tolerance : t -> float

val intern : t -> Cnum.t -> Cnum.t
(** [intern table z] returns the canonical representative of [z]: an existing
    entry within [tolerance] component-wise, or [z] itself freshly tagged.
    Values within tolerance of [0] and [1] intern to the exact constants.
    Already-tagged values (tag >= 0) are returned unchanged — a table only
    ever sees weights it produced.

    When several entries are within tolerance, the winner is fixed: the
    nine buckets around [z]'s bucket key are probed in the order (0,0),
    (-1,0), (1,0), (0,-1), (0,1), (-1,-1), (-1,1), (1,-1), (1,1), each
    newest entry first, and the first match is returned.  Node counts
    depend on this choice through the tags.  A hit allocates nothing. *)

val size : t -> int
(** Number of distinct canonical values. *)
