(** Stateful validation sessions: the paper's §6.3 operator loop, spread
    across requests.

    A session pins one acquired database instance D plus the operator's
    accumulated equality pins.  [session/next] shows the current
    card-minimal proposal's suggested updates (display-ordered,
    most-constraint-involved first, minus already-validated cells);
    [session/decide] turns Accept/Override decisions into pins and
    re-solves under them — exactly the state transitions of
    {!Dart_repair.Validation.run}, so a client that decides every pending
    update each round reproduces the in-process loop outcome (same final
    database, same iteration/examined/pin counts).

    Sessions are mutexed (concurrent requests on one session serialize)
    and TTL-evicted by {!Store}, so an operator who walks away does not
    leak pins and database instances. *)

open Dart_numeric
open Dart_relational
open Dart_constraints
open Dart_repair
open Dart
module Obs = Dart_obs.Obs

type phase =
  | Proposing of Repair.t      (** current full proposal ρ *)
  | Converged of Database.t    (** accepted repair applied *)
  | Failed of string           (** no_repair / node_budget_exceeded / max_iterations *)

type t = {
  id : string;
  origin_trace : string;                 (** trace id of the request that
                                             opened the session; links the
                                             session's lifetime back to the
                                             opener's span tree ("" when the
                                             opener was untraced) *)
  scenario : Scenario.t;
  db : Database.t;                       (** the acquired instance D *)
  rows : Ground.row list;                (** ground system, computed once *)
  max_nodes : int;
  max_iterations : int;
  mutable pins : (Ground.cell * Rat.t) list;
  mutable validated : Ground.cell list;
  mutable iterations : int;
  mutable examined : int;
  mutable phase : phase;
  mutable expires_at_ms : float;
  smu : Mutex.t;
}

let locked s f =
  Mutex.lock s.smu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.smu) f

(** Pending suggestions of a proposal: display-ordered, minus cells the
    operator already validated (§6.3: never shown twice). *)
let pending_of s rho =
  List.filter
    (fun u -> not (List.mem (Update.cell u) s.validated))
    (Solver.display_order s.rows rho)

let pending s =
  locked s (fun () ->
      match s.phase with Proposing rho -> pending_of s rho | _ -> [])

(* One re-solve under the accumulated pins; mirrors one turn of the
   Validation.run loop, and like it reuses earlier answers only through
   the solve cache.  Caller holds the session mutex. *)
let resolve ~mapper ?cancel s =
  if s.iterations >= s.max_iterations then s.phase <- Failed "max_iterations"
  else begin
    let result =
      Obs.span "server.session.resolve"
        ~attrs:[ ("session", Obs.Str s.id); ("pins", Obs.Int (List.length s.pins)) ]
        (fun () ->
          Solver.card_minimal ~max_nodes:s.max_nodes ~forced:s.pins ~mapper
            ?cancel s.db s.scenario.Scenario.constraints)
    in
    match result with
    | Solver.Consistent -> s.phase <- Converged (Validation.apply_pins s.db s.pins)
    | Solver.Repaired (rho, _prov, _) ->
      (* Degraded (incumbent) proposals are fine here: every suggestion
         still goes through the operator before anything is applied. *)
      s.iterations <- s.iterations + 1;
      if pending_of s rho = [] then
        (* Every suggestion was validated before: the repair stands. *)
        s.phase <- Converged (Update.apply s.db rho)
      else s.phase <- Proposing rho
    | Solver.No_repair _ -> s.phase <- Failed "no_repair"
    | Solver.Node_budget_exceeded _ -> s.phase <- Failed "node_budget_exceeded"
    | Solver.Cancelled _ ->
      (* Deadline hit mid-re-solve.  Keep the previous proposal (anytime
         semantics: the operator can keep validating it or retry the
         decision), but a session whose *first* solve was cancelled has
         nothing to show and is marked failed. *)
      if s.iterations = 0 then s.phase <- Failed "cancelled"
  end

(** Open a session on an acquired instance and compute the first
    proposal. *)
let create ~id ?(origin_trace = "") ~scenario ~db ?(max_nodes = 2_000_000)
    ?(max_iterations = 50) ~mapper ?cancel ~now_ms ~ttl_ms () =
  let rows = Ground.of_constraints db scenario.Scenario.constraints in
  let s =
    { id; origin_trace; scenario; db; rows; max_nodes; max_iterations; pins = []; validated = []; iterations = 0;
      examined = 0; phase = Proposing []; expires_at_ms = now_ms +. ttl_ms;
      smu = Mutex.create () }
  in
  resolve ~mapper ?cancel s;
  s

type decide_outcome = (phase, string) result

(** Apply one round of operator decisions.  Every decision must address a
    currently pending cell, each at most once; decisions covering {e all}
    pending updates with no override accept the proposal outright
    (Validation.run's [batch = None] fast path), anything else pins the
    decided cells and re-solves. *)
let decide ~mapper ?cancel s (decisions : Proto.decision_wire list) : decide_outcome =
  locked s @@ fun () ->
  match s.phase with
  | Converged _ -> Error "session already converged"
  | Failed why -> Error ("session failed: " ^ why)
  | Proposing rho ->
    let pending = pending_of s rho in
    let find_pending tid attr =
      List.find_opt
        (fun u -> u.Update.tid = tid && u.Update.attr = attr)
        pending
    in
    if decisions = [] then Error "no decisions given"
    else begin
      let cells = List.map (fun d -> (d.Proto.d_tid, d.Proto.d_attr)) decisions in
      if List.length (List.sort_uniq compare cells) <> List.length cells then
        Error "duplicate decisions for one cell"
      else begin
        (* Resolve each decision to a pin, rejecting unknown cells. *)
        let rec to_pins acc over = function
          | [] -> Ok (List.rev acc, over)
          | d :: rest ->
            (match find_pending d.Proto.d_tid d.Proto.d_attr with
             | None ->
               Error
                 (Printf.sprintf "cell <t%d,%s> is not awaiting validation"
                    d.Proto.d_tid d.Proto.d_attr)
             | Some u ->
               let cell = Update.cell u in
               (match d.Proto.d_kind with
                | `Accept ->
                  to_pins ((cell, Value.to_rat u.Update.new_value) :: acc) over rest
                | `Override text ->
                  let tu = Database.find s.db u.Update.tid in
                  let rs =
                    Schema.relation (Database.schema s.db) (Tuple.relation tu)
                  in
                  let dom = Schema.attr_domain rs u.Update.attr in
                  (match Value.parse_opt dom text with
                   | None ->
                     Error
                       (Printf.sprintf "override value %S does not fit domain %s"
                          text (Value.domain_name dom))
                   | Some v -> to_pins ((cell, Value.to_rat v) :: acc) true rest)))
        in
        match to_pins [] false decisions with
        | Error _ as e -> e
        | Ok (new_pins, any_override) ->
          s.examined <- s.examined + List.length decisions;
          s.validated <- List.map fst new_pins @ s.validated;
          s.pins <- new_pins @ s.pins;
          let covered_all = List.length decisions = List.length pending in
          if covered_all && not any_override then
            s.phase <- Converged (Update.apply s.db rho)
          else resolve ~mapper ?cancel s;
          Ok s.phase
      end
    end

let touch s ~now_ms ~ttl_ms = s.expires_at_ms <- now_ms +. ttl_ms

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

(** TTL-evicting session store.  Every successful lookup refreshes the
    session's deadline; {!sweep} (called periodically by the server's
    accept loop) drops sessions idle longer than the TTL. *)
module Store = struct
  type session = t

  type t = {
    tbl : (string, session) Hashtbl.t;
    mu : Mutex.t;
    ttl_ms : float;
    max_sessions : int;
    clock_ms : unit -> float;
    mutable next_id : int;
  }

  let create ?(clock_ms = Obs.now_ms) ~ttl_ms ~max_sessions () =
    { tbl = Hashtbl.create 16; mu = Mutex.create (); ttl_ms; max_sessions;
      clock_ms; next_id = 1 }

  let locked st f =
    Mutex.lock st.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock st.mu) f

  let ttl_ms st = st.ttl_ms

  let count st = locked st (fun () -> Hashtbl.length st.tbl)

  let fresh_id st =
    locked st (fun () ->
        let n = st.next_id in
        st.next_id <- n + 1;
        Printf.sprintf "s%d" n)

  (** Raise the id counter to at least [n] — used after crash recovery so
      fresh ids never collide with replayed sessions.  Never lowers it. *)
  let set_next_id st n = locked st (fun () -> st.next_id <- max st.next_id n)

  (** Register a freshly created session.  [Error] when the store is at
      [max_sessions] (after evicting anything expired). *)
  let put st s =
    locked st @@ fun () ->
    let now = st.clock_ms () in
    Hashtbl.iter
      (fun id s' -> if s'.expires_at_ms < now then Hashtbl.remove st.tbl id)
      (Hashtbl.copy st.tbl);
    if Hashtbl.length st.tbl >= st.max_sessions then
      Error "session store full"
    else begin
      Hashtbl.replace st.tbl s.id s;
      Ok ()
    end

  (** Look up a live session, refreshing its TTL.  Expired sessions are
      dropped and reported as absent. *)
  let find st id =
    locked st @@ fun () ->
    match Hashtbl.find_opt st.tbl id with
    | None -> None
    | Some s ->
      let now = st.clock_ms () in
      if s.expires_at_ms < now then begin
        Hashtbl.remove st.tbl id;
        None
      end
      else begin
        touch s ~now_ms:now ~ttl_ms:st.ttl_ms;
        Some s
      end

  let close st id =
    locked st @@ fun () ->
    let existed = Hashtbl.mem st.tbl id in
    Hashtbl.remove st.tbl id;
    existed

  (** Evict every expired session; returns [(id, origin_trace)] per
      dropped session so the caller can log which traces lost state. *)
  let sweep st =
    locked st @@ fun () ->
    let now = st.clock_ms () in
    let dead =
      Hashtbl.fold
        (fun id s acc ->
          if s.expires_at_ms < now then (id, s.origin_trace) :: acc else acc)
        st.tbl []
    in
    List.iter (fun (id, _) -> Hashtbl.remove st.tbl id) dead;
    dead
end
