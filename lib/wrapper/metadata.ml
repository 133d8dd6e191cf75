(** Extraction metadata (paper §6.2): domain descriptions, hierarchical
    relationships, row patterns and classification information, authored by
    the acquisition designer. *)

open Dart_textdict

(** The content specification of a row-pattern cell: a standard domain or a
    named lexical domain from the domain descriptions. *)
type cell_domain =
  | Std_integer
  | Std_real
  | Std_string
  | Lexical of string  (** named domain, e.g. "Section" *)

type pattern_cell = {
  headline : string;
  (** semantic name shown in the pattern's headline (e.g. "Year", "Value");
      the database generator maps relation attributes onto these names *)
  domain : cell_domain;
  specializes : int option;
  (** index of another cell in this pattern whose bound lexical item must be
      a generalization of this cell's item (the arrow of Figure 7a) *)
}

type row_pattern = {
  pattern_name : string;
  cells : pattern_cell array;
}

type t = {
  domains : (string * Dictionary.t) list;   (** domain name -> lexical items *)
  hierarchy : (string * string) list;       (** (item, its generalization) *)
  patterns : row_pattern list;
  classification : (string * string) list;  (** lexical item -> class label *)
  t_norm : [ `Min | `Product ];              (** combination of cell scores *)
  min_row_score : float;                     (** acceptance threshold per row *)
}

let make ?(t_norm = `Min) ?(min_row_score = 0.5) ~domains ~hierarchy ~patterns
    ~classification () =
  let dict_domains = List.map (fun (name, items) -> (name, Dictionary.create items)) domains in
  List.iter
    (fun p ->
      Array.iteri
        (fun i c ->
          (match c.domain with
           | Lexical d when not (List.mem_assoc d dict_domains) ->
             invalid_arg
               (Printf.sprintf "Metadata.make: pattern %s cell %d uses unknown domain %s"
                  p.pattern_name i d)
           | _ -> ());
          match c.specializes with
          | Some j when j < 0 || j >= Array.length p.cells || j = i ->
            invalid_arg
              (Printf.sprintf "Metadata.make: pattern %s cell %d: bad specializes index %d"
                 p.pattern_name i j)
          | _ -> ())
        p.cells)
    patterns;
  { domains = dict_domains; hierarchy; patterns; classification; t_norm; min_row_score }

(* [List.assoc_opt] by [String.equal]: these run per matched cell, and
   polymorphic compare is several times slower on strings. *)
let rec assoc_str key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc_str key rest

(** Dictionary of a named domain.  @raise Not_found for unknown domains. *)
let domain_dictionary t name =
  match assoc_str name t.domains with Some d -> d | None -> raise Not_found

(** Direct generalization of a lexical item, if declared. *)
let generalization_of t item = assoc_str item t.hierarchy

(** Transitive specialization test: is [item] a specialization of
    [ancestor] (one or more hierarchy steps up)? *)
let is_specialization_of t ~item ~ancestor =
  let rec climb current depth =
    depth < 16 (* cycle guard *)
    && (match generalization_of t current with
        | Some g -> g = ancestor || climb g (depth + 1)
        | None -> false)
  in
  climb item 0

(** Class label of a lexical item (classification information). *)
let class_of t item = assoc_str item t.classification

let combine_scores t scores =
  match t.t_norm with
  | `Min -> List.fold_left min 1.0 scores
  | `Product -> List.fold_left ( *. ) 1.0 scores
