(** Tree construction over {!Tokenizer} output.

    Implements the subset of the HTML5 implied-end-tag rules that matters
    for tabular documents: [</td>], [</tr>], [</th>], [</li>], [</p>] may be
    omitted, void elements ([br], [hr], [img], …) never nest children, and
    stray end tags are ignored.  Unclosed elements are closed at EOF. *)

type node =
  | Element of { name : string; attrs : (string * string) list; children : node list }
  | Text of string

let is_void = function
  | "area" | "base" | "br" | "col" | "embed" | "hr" | "img" | "input" | "link" | "meta"
  | "param" | "source" | "track" | "wbr" -> true
  | _ -> false

(* Start of [name] implicitly closes an open [open_name]? *)
let implies_close ~open_name ~name =
  match name, open_name with
  | "tr", ("tr" | "td" | "th")
  | ("td" | "th"), ("td" | "th")
  | "li", "li"
  | "p", "p"
  | ("tbody" | "thead" | "tfoot"), ("tr" | "td" | "th" | "tbody" | "thead" | "tfoot") -> true
  | _ -> false (* nested tables are legitimate *)

(* Whitespace-only text, by [String.trim]'s notion of whitespace. *)
let is_blank t =
  String.for_all (function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false) t

type frame = { fname : string; fattrs : (string * string) list; mutable rev_children : node list }

let parse (html : string) : node list =
  let stack : frame list ref = ref [] in
  let roots : node list ref = ref [] in
  let add_node n =
    match !stack with
    | [] -> roots := n :: !roots
    | f :: _ -> f.rev_children <- n :: f.rev_children
  in
  let close_top () =
    match !stack with
    | [] -> ()
    | f :: rest ->
      stack := rest;
      add_node (Element { name = f.fname; attrs = f.fattrs; children = List.rev f.rev_children })
  in
  let rec close_until name =
    match !stack with
    | [] -> ()
    | f :: _ ->
      if f.fname = name then close_top ()
      else if List.exists (fun fr -> fr.fname = name) !stack then begin
        close_top ();
        close_until name
      end
      (* else: stray end tag, ignore *)
  in
  Tokenizer.iter
    (fun tok ->
      match tok with
      | Tokenizer.Text t ->
        if not (is_blank t) then add_node (Text t)
      | Tokenizer.End_tag name -> close_until name
      | Tokenizer.Start_tag { name; attrs; self_closing } ->
        let rec auto_close () =
          match !stack with
          | f :: _ when implies_close ~open_name:f.fname ~name ->
            close_top ();
            auto_close ()
          | _ -> ()
        in
        auto_close ();
        if self_closing || is_void name then
          add_node (Element { name; attrs; children = [] })
        else stack := { fname = name; fattrs = attrs; rev_children = [] } :: !stack)
    html;
  while !stack <> [] do close_top () done;
  List.rev !roots

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

let attr node name =
  match node with
  | Element { attrs; _ } -> List.assoc_opt name attrs
  | Text _ -> None

let children = function Element { children; _ } -> children | Text _ -> []

let name = function Element { name; _ } -> Some name | Text _ -> None

(** Depth-first search for all elements with the given tag name. *)
let find_all tag nodes =
  let rec go acc node =
    match node with
    | Text _ -> acc
    | Element { name; children; _ } ->
      let acc = if name = tag then node :: acc else acc in
      List.fold_left go acc children
  in
  List.rev (List.fold_left go [] nodes)

(** Direct element children with the given tag name. *)
let child_elements tag node =
  List.filter (fun c -> name c = Some tag) (children node)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Already normalized: no leading, trailing or doubled whitespace, and
   no whitespace but ' '. *)
let is_squeezed t =
  let n = String.length t in
  n > 0 && not (is_space t.[0]) && not (is_space t.[n - 1])
  && (let rec ok i =
        i >= n
        || (match t.[i] with
            | ' ' -> not (is_space t.[i + 1]) && ok (i + 2)
            | '\t' | '\n' | '\r' -> false
            | _ -> ok (i + 1))
      in
      ok 0)

(** Concatenated text content, whitespace-normalized: text nodes are
    joined by a space and runs of whitespace squeezed to one, in one pass.
    A single text node that is already normalized is returned uncopied. *)
let text_content node =
  match node with
  | Text t | Element { children = [ Text t ]; _ } when is_squeezed t -> t
  | _ ->
    let buf = Buffer.create 32 in
    let pending_space = ref false in
    let add_text t =
      String.iter
        (fun c ->
          if is_space c then pending_space := true
          else begin
            if !pending_space && Buffer.length buf > 0 then Buffer.add_char buf ' ';
            pending_space := false;
            Buffer.add_char buf c
          end)
        t;
      pending_space := true
    in
    let rec go = function
      | Text t -> add_text t
      | Element { children; _ } -> List.iter go children
    in
    go node;
    Buffer.contents buf

let rec pp fmt = function
  | Text t -> Format.fprintf fmt "%S" t
  | Element { name; children; _ } ->
    Format.fprintf fmt "@[<hv 2>%s(%a)@]" name
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp)
      children
