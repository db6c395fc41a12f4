(** Random distributions on top of {!Xoshiro}.

    Every sampler takes the generator explicitly; no global state. *)

val uniform : Xoshiro.t -> lo:float -> hi:float -> float
(** [uniform g ~lo ~hi] is uniform on [[lo, hi)].  Requires [lo <= hi]. *)

val gaussian : Xoshiro.t -> mu:float -> sigma:float -> float
(** [gaussian g ~mu ~sigma] samples a normal variate (Box–Muller,
    polar-free variant).  [sigma >= 0]. *)

val exponential : Xoshiro.t -> rate:float -> float
(** [exponential g ~rate] samples Exp(rate) by inversion.  [rate > 0]. *)

val bernoulli : Xoshiro.t -> p:float -> bool
(** [bernoulli g ~p] is [true] with probability [p]. *)

val fair_coin : Xoshiro.t -> bool
(** [fair_coin g] is a fair Bernoulli draw — the adversary's coin in the
    paper's Yao-principle lower bounds. *)

val poisson : Xoshiro.t -> lambda:float -> int
(** [poisson g ~lambda] samples a Poisson count by Knuth's method, which
    draws about [lambda] uniforms.  Knuth's bound [exp (-lambda)]
    underflows past [lambda ≈ 708], so for [lambda > 700] the count is
    the sum of two independent draws at [lambda / 2] and
    [lambda - lambda / 2] (exact in distribution); draws with
    [lambda <= 700] are Knuth's loop alone.  Raises [Invalid_argument]
    if [lambda] is negative or not finite. *)

val zipf : Xoshiro.t -> n:int -> s:float -> int
(** [zipf g ~n ~s] samples a rank in [[1, n]] with probability
    proportional to [1/rank^s], by inversion on the precomputed CDF is
    avoided — uses rejection-inversion suitable for repeated calls with
    small [n]. *)

val direction : Xoshiro.t -> dim:int -> float array
(** [direction g ~dim] is a uniformly random unit vector in [R^dim]
    (normalized Gaussian vector). *)

val in_ball : Xoshiro.t -> center:float array -> radius:float -> float array
(** [in_ball g ~center ~radius] is a uniform point in the closed
    Euclidean ball. *)

val shuffle : Xoshiro.t -> 'a array -> unit
(** [shuffle g a] permutes [a] uniformly in place (Fisher–Yates). *)
