(* The four paper workloads: their inputs, the timed simulate call, the
   independent references their results are checked against, and the
   layer-by-layer replay the traced run records. *)

open Dd_sim
module Cnum = Dd_complex.Cnum

type kind =
  | Supremacy of { rows : int; cols : int; cycles : int; strategy : Strategy.t }
  | Order_finding of { a : int; modulus : int; backend : Shor.backend }

type t = { name : string; kind : kind }

(* Max_size 128 rather than 512: under 512 the window split, and with it
   the work of the two large mat-vecs, is bimodal across circuit seeds
   (3.6 s or 6.6 s), while 128 keeps the same shape — two mat-vecs,
   82 mat-mats — at a seed-independent cost. *)
let workloads ~toy =
  let rows, cols, cycles = if toy then (3, 3, 8) else (4, 4, 9) in
  let supremacy strategy = Supremacy { rows; cols; cycles; strategy } in
  let kops_a, kops_n = if toy then (7, 15) else (5, 33) in
  let direct_a, direct_n = if toy then (7, 15) else (2409, 2561) in
  [
    { name = "supremacy_seq"; kind = supremacy Strategy.Sequential };
    { name = "supremacy_maxsize"; kind = supremacy (Strategy.Max_size 128) };
    {
      name = "shor_kops";
      kind =
        Order_finding
          { a = kops_a; modulus = kops_n;
            backend = Shor.Beauregard (Strategy.K_operations 4) };
    };
    {
      name = "shor_construct";
      kind =
        Order_finding { a = direct_a; modulus = direct_n; backend = Shor.Direct };
    };
  ]

let qubits w =
  match w.kind with
  | Supremacy { rows; cols; _ } -> rows * cols
  | Order_finding { modulus; backend = Shor.Beauregard _; _ } ->
    Shor.beauregard_qubits modulus
  | Order_finding { modulus; backend = Shor.Direct; _ } ->
    Shor.direct_qubits modulus

(* Largest |amplitude difference| a run may show against its reference. *)
let tolerance = 1e-10

(* ------------------------------------------------------------------ *)
(* Exact model of iterative phase estimation                           *)
(* ------------------------------------------------------------------ *)

(* Shor's order finding starts from |1> = r^-1/2 sum_s |u_s>, where the
   |u_s> = r^-1/2 sum_j e^(-2 pi i s j / r) |a^j mod N> are eigenvectors of
   x -> a x mod N with eigenvalue e^(2 pi i s / r).  Each round acts on the
   amplitudes c_s alone, so the whole semiclassical circuit — including the
   measurement draws, taken from the same RNG stream the engine uses — is
   computed classically in O(r) per round.  It yields the measured phase
   and the exact final state, without simulating a gate. *)
type ipe = { phase : int; eigen : Complex.t array  (** final c_s *) }

let classical_order a modulus =
  let rec go x r = if x = 1 then r else go (x * a mod modulus) (r + 1) in
  go (a mod modulus) 1

let ipe_model ~seed ~order ~bits =
  let rng = Random.State.make [| seed |] in
  let c = Array.make order { Complex.re = 1. /. sqrt (float_of_int order); im = 0. } in
  let two_pi = 2. *. Float.pi in
  let measured = ref 0 in
  for k = bits - 1 downto 0 do
    let bit_index = bits - 1 - k in
    let known = !measured land ((1 lsl bit_index) - 1) in
    let theta =
      if known = 0 then 0.
      else -.two_pi *. float_of_int known /. float_of_int (1 lsl (bit_index + 1))
    in
    let step = Ntheory.mod_pow 2 k order in
    let omega s =
      Complex.polar 1.
        ((two_pi *. float_of_int (s * step mod order) /. float_of_int order) +. theta)
    in
    let half sign s = Complex.div (Complex.add Complex.one (Complex.mul sign (omega s))) { re = 2.; im = 0. } in
    let minus = { Complex.re = -1.; im = 0. } in
    let p1 = ref 0. in
    Array.iteri (fun s cs -> p1 := !p1 +. (Complex.norm2 cs *. Complex.norm2 (half minus s))) c;
    let outcome = Random.State.float rng 1. < !p1 in
    let sign = if outcome then minus else Complex.one in
    let scale = { Complex.re = 1. /. sqrt (if outcome then !p1 else 1. -. !p1); im = 0. } in
    Array.iteri (fun s cs -> c.(s) <- Complex.mul scale (Complex.mul cs (half sign s))) c;
    if outcome then measured := !measured lor (1 lsl bit_index)
  done;
  { phase = !measured; eigen = c }

(* The model's final state as a dense vector: amplitude
   sum_s c_s r^-1/2 e^(-2 pi i s j / r) at basis index a^j mod N, with
   every other register (and the control) back at 0. *)
let model_array ~a ~modulus ~qubits model =
  let order = Array.length model.eigen in
  let v = Array.make (1 lsl qubits) Cnum.zero in
  for j = 0 to order - 1 do
    let amp = ref Complex.zero in
    Array.iteri
      (fun s cs ->
        let w =
          Complex.polar (1. /. sqrt (float_of_int order))
            (-2. *. Float.pi *. float_of_int (s * j mod order) /. float_of_int order)
        in
        amp := Complex.add !amp (Complex.mul cs w))
      model.eigen;
    v.(Ntheory.mod_pow a j modulus) <- Cnum.make !amp.re !amp.im
  done;
  v

let phase_bits modulus = 2 * Ntheory.bit_length modulus

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type input =
  | Circuit of Circuit.t
  | Order of { seed : int; order : int; model : ipe }
      (** the program's measurement seed, the classical order, and the
          exact model of that seed's single order-finding attempt *)

(* The order-finding seed is the first one derived from the benchmark seed
   whose single attempt recovers the order under the exact model, so every
   repetition of every seed simulates exactly one attempt ([find_order]
   would otherwise retry a seed-dependent 1-3 times). *)
let make_input w ~seed =
  match w.kind with
  | Supremacy { rows; cols; cycles; _ } ->
    Circuit (Supremacy.circuit ~seed ~rows ~cols ~cycles ())
  | Order_finding { a; modulus; _ } ->
    let order = classical_order a modulus in
    let bits = phase_bits modulus in
    let rec pick j =
      let seed = Hashtbl.hash (seed, j) in
      let model = ipe_model ~seed ~order ~bits in
      if Ntheory.order_from_phase ~a ~modulus ~y:model.phase ~bits = Some order
      then Order { seed; order; model }
      else pick (j + 1)
    in
    pick 0

(* What [setup_s] times: generate the inputs and create the engine the
   simulate call starts from.  [Shor.find_order] creates its engine
   inside the timed call; the one made here has the same width, so set-up
   work moved into engine creation still shows. *)
let setup w ~seed =
  let input = make_input w ~seed in
  let engine_seed = match input with Order o -> o.seed | Circuit _ -> 0xDD in
  (input, Engine.create ~seed:engine_seed (qubits w))

(* The timed call, with tracing off.  Returns the recovered order for
   order finding. *)
let simulate w input engine =
  match (w.kind, input) with
  | Supremacy { strategy; _ }, Circuit c ->
    Engine.run ~strategy engine c;
    None
  | Order_finding { a; modulus; backend }, Order { seed; _ } ->
    Shor.find_order ~seed ~attempts:1 ~backend ~a modulus
  | _ -> invalid_arg "Workload.simulate"

let dense_reference c =
  let d = Dense_state.create Circuit.(c.qubits) in
  Dense_state.run d c;
  Dense_state.to_array d

let max_error dd reference =
  let err = ref 0. in
  Array.iteri (fun i z -> err := Float.max !err (Cnum.mag (Cnum.sub z reference.(i)))) dd;
  !err

let state_array engine =
  Dd.Vdd.to_array (Engine.state engine) ~n:(Engine.qubits engine)

(* ------------------------------------------------------------------ *)
(* DD counts: the fidelity and determinism checks compare these        *)
(* ------------------------------------------------------------------ *)

type counts = {
  mat_vec : int;
  mat_mat : int;
  v_created : int;
  m_created : int;
  lookups : int;
  hits : int;
  final_nodes : int;
  phase : int;  (** measured phase numerator; -1 for supremacy *)
}

let counts engine ~mat_mat ~phase =
  let ctx = Engine.context engine in
  let tables = Dd.Context.table_stats ctx in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 tables in
  {
    mat_vec = (Engine.stats engine).mat_vec_mults;
    mat_mat;
    v_created = Dd.Context.v_unique_size ctx;
    m_created = Dd.Context.m_unique_size ctx;
    lookups = sum (fun s -> s.Dd.Compute_table.lookups);
    hits = sum (fun s -> s.Dd.Compute_table.hits);
    final_nodes = Engine.state_node_count engine;
    phase;
  }

let pp_counts c =
  Printf.sprintf
    "mat_vec=%d mat_mat=%d v_created=%d m_created=%d lookups=%d hits=%d \
     final_nodes=%d phase=%d"
    c.mat_vec c.mat_mat c.v_created c.m_created c.lookups c.hits c.final_nodes
    c.phase

(* ------------------------------------------------------------------ *)
(* Replay through the layers' public entry points                      *)
(* ------------------------------------------------------------------ *)

type tally = { mutable mat_mat : int; mutable peak_product : int }

(* [Engine.run]'s strategy dispatch, one layer call per span: the same
   gate-DD builds, products and applications in the same order. *)
let replay_gates rc tally engine strategy gates =
  let ctx = Engine.context engine in
  let gate_dd g = Spans.span rc "gate_dd" (fun () -> Engine.gate_dd engine g) in
  let mul m p =
    tally.mat_mat <- tally.mat_mat + 1;
    let product = Spans.span rc "mdd_mul" (fun () -> Dd.Mdd.mul ctx m p) in
    tally.peak_product <- max tally.peak_product (Dd.Mdd.node_count product);
    product
  in
  let apply m = Spans.span rc "mdd_apply" (fun () -> Engine.apply_matrix engine m) in
  let windows full =
    let pending = ref None and count = ref 0 in
    List.iter
      (fun g ->
        let m = gate_dd g in
        let p = match !pending with None -> m | Some p -> mul m p in
        incr count;
        if full p !count then begin
          apply p;
          pending := None;
          count := 0
        end
        else pending := Some p)
      gates;
    Option.iter apply !pending
  in
  match strategy with
  | Strategy.Sequential ->
    List.iter
      (fun g -> Spans.span rc "apply" (fun () -> Engine.apply_gate engine g))
      gates
  | Strategy.K_operations k -> windows (fun _ count -> count >= k)
  | Strategy.Max_size bound ->
    windows (fun p _ -> Dd.Mdd.node_count p > bound)

(* Shor's order finding at the engine level ([Shor.run_order_finding]'s
   steps over public entry points).  With [expand] each controlled-U
   segment is replayed gate by gate instead of going through [Engine.run].
   Returns the measured phase. *)
let order_finding rc tally engine ~expand ~a ~modulus backend =
  let bits = phase_bits modulus in
  let apply g = Spans.span rc "apply" (fun () -> Engine.apply_gate engine g) in
  let control, controlled_power =
    match backend with
    | Shor.Beauregard strategy ->
      let layout = Shor.layout modulus in
      let power k =
        let multiplier = Ntheory.mod_pow a (1 lsl k) modulus in
        let gates =
          Shor.controlled_ua_gates ~layout ~control:layout.control ~modulus
            multiplier
        in
        if expand then
          Spans.span rc "segment" (fun () ->
              replay_gates rc tally engine strategy gates)
        else
          Engine.run ~strategy engine
            (Circuit.of_gates ~name:"cua" ~qubits:(Engine.qubits engine) gates)
      in
      (layout.control, power)
    | Shor.Direct ->
      let n = Ntheory.bit_length modulus in
      let ctx = Engine.context engine in
      let cache = Hashtbl.create 16 in
      let oracle multiplier =
        match Hashtbl.find_opt cache multiplier with
        | Some dd -> dd
        | None ->
          let f x = if x < modulus then x * multiplier mod modulus else x in
          let construct f = Spans.span rc "mdd_construct" f in
          let u = construct (fun () -> Dd.Mdd.of_permutation ctx ~n f) in
          let cu = construct (fun () -> Dd.Mdd.control_top ctx ~n u) in
          Hashtbl.add cache multiplier cu;
          cu
      in
      let power k =
        let cu = oracle (Ntheory.mod_pow a (1 lsl k) modulus) in
        Spans.span rc "mdd_apply" (fun () -> Engine.apply_matrix engine cu)
      in
      (n, power)
  in
  apply (Gate.x 0);
  let measured = ref 0 in
  for k = bits - 1 downto 0 do
    apply (Gate.h control);
    controlled_power k;
    let bit_index = bits - 1 - k in
    let known = !measured land ((1 lsl bit_index) - 1) in
    if known <> 0 then
      apply
        (Gate.phase
           (-.2. *. Float.pi *. float_of_int known
           /. float_of_int (1 lsl (bit_index + 1)))
           control);
    apply (Gate.h control);
    if Spans.span rc "measure" (fun () -> Engine.measure_qubit engine ~qubit:control)
    then begin
      measured := !measured lor (1 lsl bit_index);
      apply (Gate.x control)
    end
  done;
  !measured

type replay = {
  engine : Engine.t;
  recorder : Spans.t;
  tally : tally;
  replay_counts : counts;
  untraced_counts : counts option;
      (** order finding: the untraced engine-level run the replay is
          compared with; supremacy compares with the timed runs instead *)
  max_amp_error : float;
}

(* The traced run.  [reference] holds the dense amplitudes (supremacy);
   order finding is checked against the exact model in its input, and
   first runs the same steps untraced so the replay has DD counts to
   match ([Shor.find_order] exposes none). *)
let replay w input ~reference =
  match (w.kind, input) with
  | Supremacy { strategy; _ }, Circuit c ->
    let engine = Engine.create (qubits w) in
    let recorder = Spans.create engine in
    let tally = { mat_mat = 0; peak_product = 0 } in
    Spans.span recorder "engine" (fun () ->
        replay_gates recorder tally engine strategy (Circuit.flatten c));
    {
      engine;
      recorder;
      tally;
      replay_counts = counts engine ~mat_mat:tally.mat_mat ~phase:(-1);
      untraced_counts = None;
      max_amp_error = max_error (state_array engine) reference;
    }
  | Order_finding { a; modulus; backend }, Order { seed; model; _ } ->
    let create () = Engine.create ~seed (qubits w) in
    let untraced = create () in
    let tally0 = { mat_mat = 0; peak_product = 0 } in
    let phase0 =
      order_finding Spans.Off tally0 untraced ~expand:false ~a ~modulus backend
    in
    let untraced_counts =
      counts untraced ~mat_mat:(Engine.stats untraced).mat_mat_mults ~phase:phase0
    in
    let engine = create () in
    let recorder = Spans.create engine in
    let tally = { mat_mat = 0; peak_product = 0 } in
    let phase =
      Spans.span recorder "engine" (fun () ->
          order_finding recorder tally engine ~expand:true ~a ~modulus backend)
    in
    {
      engine;
      recorder;
      tally;
      replay_counts = counts engine ~mat_mat:tally.mat_mat ~phase;
      untraced_counts = Some untraced_counts;
      max_amp_error =
        max_error (state_array engine)
          (model_array ~a ~modulus ~qubits:(qubits w) model);
    }
  | _ -> invalid_arg "Workload.replay"
