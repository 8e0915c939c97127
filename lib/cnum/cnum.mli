(** Complex numbers for decision-diagram edge weights.

    A value carries a [tag]: [-1] for a freshly computed (uninterned) number,
    or a unique non-negative identifier once canonicalised through
    {!Ctable.intern}.  Interned values of (numerically) equal numbers are
    physically equal and share the same tag, so weight equality inside the DD
    package is a single integer comparison.

    The record is flat: three unboxed doubles in one 4-word block.  The tag
    is stored as a float and read back as an [int] by {!tag}; tags are exact
    below 2^53. *)

type t = private { re : float; im : float; tag : float }

val zero : t
(** [0 + 0i], pre-tagged with {!Ctable.zero_tag}. *)

val one : t
(** [1 + 0i], pre-tagged with {!Ctable.one_tag}. *)

val make : float -> float -> t
(** [make re im] is the uninterned complex number [re + im*i]. *)

val of_float : float -> t
(** [of_float x] is [make x 0.]. *)

val of_polar : float -> float -> t
(** [of_polar r theta] is [r * (cos theta + i sin theta)]. *)

val re : t -> float
val im : t -> float
val tag : t -> int

val with_tag : t -> int -> t
(** [with_tag z tag] re-labels [z]; reserved for {!Ctable}. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [div a b] raises [Division_by_zero] when [b] is exactly zero. *)

val neg : t -> t
val conj : t -> t
val scale : float -> t -> t

val mag2 : t -> float
(** Squared magnitude [re*re + im*im]. *)

val mag : t -> float

val default_tolerance : float
(** Tolerance used for approximate comparisons, [1e-12]. *)

val approx_zero : ?tol:float -> t -> bool
(** Component-wise comparison against zero. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Component-wise comparison. *)

val is_finite : t -> bool
(** Neither component is infinite or NaN. *)

val is_exact_zero : t -> bool
val is_exact_one : t -> bool

val compare_mag : t -> t -> int
(** Total order by squared magnitude, then by real part, then imaginary
    part; used for deterministic normalisation tie-breaks. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
