(** In-memory database instances.

    Purely functional: insertions and cell updates return new instances, so
    the repairing module can hold the original D and a candidate ρ(D) side
    by side (paper §3.2). Tuples keep stable ids across updates. *)

type t = {
  schema : Schema.t;
  rels : (string * Tuple.t list) list; (* tuples in reverse insertion order *)
  next_id : int;
}

let create schema =
  { schema;
    rels = List.map (fun name -> (name, [])) (Schema.relation_names schema);
    next_id = 0 }

let schema t = t.schema

(** Insert a row; values are checked against the relation schema.
    Returns the new instance and the created tuple.
    @raise Invalid_argument on arity or domain mismatch. *)
let insert t rel_name values =
  let rs = try Schema.relation t.schema rel_name with Not_found ->
    invalid_arg ("Database.insert: unknown relation " ^ rel_name)
  in
  if Array.length values <> Schema.arity rs then
    invalid_arg (Printf.sprintf "Database.insert: arity mismatch for %s" rel_name);
  Array.iteri
    (fun i v ->
      let _, dom = rs.Schema.attributes.(i) in
      if Value.domain_of v <> dom then
        invalid_arg
          (Printf.sprintf "Database.insert: %s.%s expects %s, got %s" rel_name
             (Schema.attr_name rs i) (Value.domain_name dom)
             (Value.domain_name (Value.domain_of v))))
    values;
  let tuple = { Tuple.id = t.next_id; rel = rel_name; values } in
  let rels =
    List.map (fun (n, ts) -> if n = rel_name then (n, tuple :: ts) else (n, ts)) t.rels
  in
  ({ t with rels; next_id = t.next_id + 1 }, tuple)

let insert_row t rel_name values =
  let t, _ = insert t rel_name values in
  t

(** Tuples of a relation in insertion order. *)
let tuples_of t rel_name =
  match List.assoc_opt rel_name t.rels with
  | Some ts -> List.rev ts
  | None -> invalid_arg ("Database.tuples_of: unknown relation " ^ rel_name)

(** All tuples of the instance, relation by relation, in insertion order. *)
let all_tuples t = List.concat_map (fun (n, _) -> tuples_of t n) t.rels

let cardinality t = List.fold_left (fun n (_, ts) -> n + List.length ts) 0 t.rels

(** Find a tuple by id.  @raise Not_found if absent. *)
let find t id =
  let rec in_rels = function
    | [] -> raise Not_found
    | (_, ts) :: rest ->
      (match List.find_opt (fun tu -> Tuple.id tu = id) ts with
       | Some tu -> tu
       | None -> in_rels rest)
  in
  in_rels t.rels

(** Replace the value of attribute [attr] in the tuple with id [tid].
    @raise Not_found if the tuple or attribute does not exist. *)
let update_value t tid attr v =
  let updated = ref false in
  let rels =
    List.map
      (fun (n, ts) ->
        ( n,
          List.map
            (fun tu ->
              if Tuple.id tu = tid then begin
                let rs = Schema.relation t.schema n in
                let i = Schema.attr_index rs attr in
                updated := true;
                Tuple.with_value tu i v
              end
              else tu)
            ts ))
      t.rels
  in
  if not !updated then raise Not_found;
  { t with rels }

(** Select tuples of a relation satisfying a closed formula (no parameters). *)
let select t rel_name formula =
  let keep = Formula.compile (Schema.relation t.schema rel_name) formula [||] in
  List.filter keep (tuples_of t rel_name)

(** SELECT sum(expr) FROM rel WHERE formula, with expr given as a per-tuple
    rational valuation — the building block for aggregation functions. *)
let sum_where t rel_name ~env formula value_of_tuple =
  let keep = Formula.compile (Schema.relation t.schema rel_name) formula env in
  List.fold_left
    (fun acc tu ->
      if keep tu then Dart_numeric.Rat.add acc (value_of_tuple tu)
      else acc)
    Dart_numeric.Rat.zero (tuples_of t rel_name)

(** Two instances are equal when they contain pairwise value-equal tuples
    (matched by tuple id) in the same relations. *)
let equal_contents a b =
  let tuples_sorted t =
    List.sort (fun t1 t2 -> compare (Tuple.id t1) (Tuple.id t2)) (all_tuples t)
  in
  let ta = tuples_sorted a and tb = tuples_sorted b in
  List.length ta = List.length tb
  && List.for_all2
       (fun x y -> Tuple.id x = Tuple.id y && Tuple.relation x = Tuple.relation y
                   && Tuple.equal_values x y)
       ta tb

let pp fmt t =
  List.iter
    (fun (n, _) ->
      Format.fprintf fmt "%s:@." n;
      List.iter (fun tu -> Format.fprintf fmt "  %a@." Tuple.pp tu) (tuples_of t n))
    t.rels
