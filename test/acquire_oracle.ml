(* The acquisition front end as it was before the allocation-lean rewrite,
   kept as a differential oracle for [Dart_html], [Dart_textdict] and
   [Dart_wrapper].

   Tokenizing pushes text through a buffer one byte at a time and
   entity-decodes every run; the tree builder tests membership in string
   lists; a table's occupied columns are lists; edit distances run the
   textbook recurrences; a dictionary lookup scans every entry; a cell
   is bound by trimming, splitting and concatenating.  Slow, and
   obviously right.

   One deliberate difference from the old code: [span] applies the
   current rule for colspan/rowspan values (digits only, clamped to the
   HTML table model's limits), which the old parser did not have. *)

open Dart_wrapper

(* ------------------------------------------------------------------ *)
(* Entities and tokens                                                  *)
(* ------------------------------------------------------------------ *)

let decode s =
  let buf = Buffer.create (String.length s) in
  let len = String.length s in
  let rec go i =
    if i >= len then ()
    else if s.[i] = '&' then begin
      match String.index_from_opt s i ';' with
      | Some j when j - i <= 10 ->
        let name = String.sub s (i + 1) (j - i - 1) in
        let replacement =
          if String.length name > 1 && name.[0] = '#' then begin
            let code =
              if String.length name > 2 && (name.[1] = 'x' || name.[1] = 'X') then
                int_of_string_opt ("0x" ^ String.sub name 2 (String.length name - 2))
              else int_of_string_opt (String.sub name 1 (String.length name - 1))
            in
            match code with
            | Some c when c >= 32 && c < 127 -> Some (String.make 1 (Char.chr c))
            | Some _ -> Some "?"
            | None -> None
          end
          else Dart_html.Entity.named name
        in
        (match replacement with
         | Some r -> Buffer.add_string buf r; go (j + 1)
         | None -> Buffer.add_char buf '&'; go (i + 1))
      | _ -> Buffer.add_char buf '&'; go (i + 1)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

type token = Dart_html.Tokenizer.token =
  | Start_tag of { name : string; attrs : (string * string) list; self_closing : bool }
  | End_tag of string
  | Text of string

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '-'
  || c = '_' || c = ':'

let tokenize (s : string) : token list =
  let len = String.length s in
  let out = ref [] in
  let emit tok = out := tok :: !out in
  let text_buf = Buffer.create 64 in
  let flush_text () =
    if Buffer.length text_buf > 0 then begin
      emit (Text (decode (Buffer.contents text_buf)));
      Buffer.clear text_buf
    end
  in
  let rec skip_space i = if i < len && is_space s.[i] then skip_space (i + 1) else i in
  let read_name i =
    let rec go j = if j < len && is_name_char s.[j] then go (j + 1) else j in
    let j = go i in
    (String.lowercase_ascii (String.sub s i (j - i)), j)
  in
  let read_attr_value i =
    if i >= len then ("", i)
    else if s.[i] = '"' || s.[i] = '\'' then begin
      let quote = s.[i] in
      match String.index_from_opt s (i + 1) quote with
      | Some j -> (decode (String.sub s (i + 1) (j - i - 1)), j + 1)
      | None -> (decode (String.sub s (i + 1) (len - i - 1)), len)
    end
    else begin
      let rec go j = if j < len && not (is_space s.[j]) && s.[j] <> '>' then go (j + 1) else j in
      let j = go i in
      (decode (String.sub s i (j - i)), j)
    end
  in
  let rec read_attrs i acc =
    let i = skip_space i in
    if i >= len then (List.rev acc, i, false)
    else if s.[i] = '>' then (List.rev acc, i + 1, false)
    else if s.[i] = '/' && i + 1 < len && s.[i + 1] = '>' then (List.rev acc, i + 2, true)
    else begin
      let name, i = read_name i in
      if name = "" then read_attrs (i + 1) acc
      else begin
        let i = skip_space i in
        if i < len && s.[i] = '=' then begin
          let i = skip_space (i + 1) in
          let v, i = read_attr_value i in
          read_attrs i ((name, v) :: acc)
        end
        else read_attrs i ((name, "") :: acc)
      end
    end
  in
  let find_raw_end i tag =
    let target = "</" ^ tag in
    let tlen = String.length target in
    let rec go j =
      if j + tlen > len then len
      else if String.lowercase_ascii (String.sub s j tlen) = target then j
      else go (j + 1)
    in
    go i
  in
  let rec loop i =
    if i >= len then flush_text ()
    else if s.[i] = '<' then begin
      if i + 3 < len && String.sub s i 4 = "<!--" then begin
        flush_text ();
        let rec find_end j =
          if j + 2 >= len then len
          else if String.sub s j 3 = "-->" then j + 3
          else find_end (j + 1)
        in
        loop (find_end (i + 4))
      end
      else if i + 1 < len && s.[i + 1] = '!' then begin
        flush_text ();
        match String.index_from_opt s i '>' with
        | Some j -> loop (j + 1)
        | None -> flush_text ()
      end
      else if i + 1 < len && s.[i + 1] = '/' then begin
        flush_text ();
        let name, j = read_name (i + 2) in
        (match String.index_from_opt s j '>' with
         | Some k ->
           if name <> "" then emit (End_tag name);
           loop (k + 1)
         | None -> flush_text ())
      end
      else begin
        let name, j = read_name (i + 1) in
        if name = "" then begin
          Buffer.add_char text_buf '<';
          loop (i + 1)
        end
        else begin
          flush_text ();
          let attrs, j, self_closing = read_attrs j [] in
          emit (Start_tag { name; attrs; self_closing });
          if (name = "script" || name = "style") && not self_closing then begin
            let k = find_raw_end j name in
            if k >= len then loop len
            else begin
              emit (End_tag name);
              match String.index_from_opt s k '>' with
              | Some e -> loop (e + 1)
              | None -> loop len
            end
          end
          else loop j
        end
      end
    end
    else begin
      Buffer.add_char text_buf s.[i];
      loop (i + 1)
    end
  in
  loop 0;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Tree                                                                 *)
(* ------------------------------------------------------------------ *)

type node = Dart_html.Dom.node =
  | Element of { name : string; attrs : (string * string) list; children : node list }
  | Text of string

let void_elements =
  [ "area"; "base"; "br"; "col"; "embed"; "hr"; "img"; "input"; "link"; "meta";
    "param"; "source"; "track"; "wbr" ]

let implies_close ~open_name ~name =
  match name with
  | "tr" -> List.mem open_name [ "tr"; "td"; "th" ]
  | "td" | "th" -> List.mem open_name [ "td"; "th" ]
  | "li" -> open_name = "li"
  | "p" -> open_name = "p"
  | "tbody" | "thead" | "tfoot" ->
    List.mem open_name [ "tr"; "td"; "th"; "tbody"; "thead"; "tfoot" ]
  | _ -> false

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
  in
  List.iter
    (fun tok ->
      match tok with
      | Dart_html.Tokenizer.Text t -> if String.trim t <> "" then add_node (Text t)
      | End_tag name -> close_until name
      | Start_tag { name; attrs; self_closing } ->
        let rec auto_close () =
          match !stack with
          | f :: _ when implies_close ~open_name:f.fname ~name ->
            close_top ();
            auto_close ()
          | _ -> ()
        in
        auto_close ();
        if self_closing || List.mem name void_elements then
          add_node (Element { name; attrs; children = [] })
        else stack := { fname = name; fattrs = attrs; rev_children = [] } :: !stack)
    (tokenize html);
  while !stack <> [] do close_top () done;
  List.rev !roots

let find_all tag nodes =
  let rec go acc node =
    match node with
    | Text _ -> acc
    | Element { name; children; _ } ->
      let acc = if name = tag then node :: acc else acc in
      List.fold_left go acc children
  in
  List.rev (List.fold_left go [] nodes)

let text_content node =
  let buf = Buffer.create 32 in
  let rec go = function
    | Text t -> Buffer.add_string buf t; Buffer.add_char buf ' '
    | Element { children; _ } -> List.iter go children
  in
  go node;
  let raw = Buffer.contents buf in
  let out = Buffer.create (String.length raw) in
  let pending_space = ref false in
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then pending_space := true
      else begin
        if !pending_space && Buffer.length out > 0 then Buffer.add_char out ' ';
        pending_space := false;
        Buffer.add_char out c
      end)
    raw;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Tables                                                               *)
(* ------------------------------------------------------------------ *)

(* The span rule: a trimmed run of digits, at least 1, at most [limit];
   anything else is 1. *)
let span node name ~limit =
  match node with
  | Element { attrs; _ } ->
    (match List.assoc_opt name attrs with
     | Some v ->
       let v = String.trim v in
       if v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v then begin
         (* Strip leading zeros so long zero-padded values still parse. *)
         let n = String.length v in
         let rec first i = if i < n - 1 && v.[i] = '0' then first (i + 1) else i in
         let v = String.sub v (first 0) (n - first 0) in
         if String.length v > 7 then limit
         else match int_of_string v with 0 -> 1 | k -> min k limit
       end
       else 1
     | None -> 1)
  | Text _ -> 1

let cell_of_node node : Dart_html.Table.cell =
  { text = text_content node;
    rowspan = span node "rowspan" ~limit:65534;
    colspan = span node "colspan" ~limit:1000;
    header = (match node with Element { name = "th"; _ } -> true | _ -> false) }

let rows_of_table table_node =
  let rec collect node acc =
    match node with
    | Text _ -> acc
    | Element { name = "table"; _ } when node != table_node -> acc
    | Element { name = "tr"; _ } -> node :: acc
    | Element { children; _ } -> List.fold_left (fun acc c -> collect c acc) acc children
  in
  List.rev (collect table_node [])

let expand (raw_rows : Dart_html.Table.cell list list) =
  let nrows = List.length raw_rows in
  if nrows = 0 then ([||], [||])
  else begin
    let width = ref 0 in
    let occupied = Array.make nrows [] in
    let cells_at = ref [] in
    List.iteri
      (fun r row ->
        let col = ref 0 in
        let is_free c = not (List.mem c occupied.(r)) in
        List.iter
          (fun (cell : Dart_html.Table.cell) ->
            while not (is_free !col) do incr col done;
            cells_at := (r, !col, cell) :: !cells_at;
            for dr = 0 to min (cell.rowspan - 1) (nrows - 1 - r) do
              for dc = 0 to cell.colspan - 1 do
                occupied.(r + dr) <- (!col + dc) :: occupied.(r + dr)
              done
            done;
            width := max !width (!col + cell.colspan);
            col := !col + cell.colspan)
          row)
      raw_rows;
    let grid = Array.make_matrix nrows !width None in
    let origin = Array.make_matrix nrows !width (-1, -1) in
    List.iter
      (fun (r, c, (cell : Dart_html.Table.cell)) ->
        for dr = 0 to min (cell.rowspan - 1) (nrows - 1 - r) do
          for dc = 0 to min (cell.colspan - 1) (!width - 1 - c) do
            grid.(r + dr).(c + dc) <- Some cell.text;
            origin.(r + dr).(c + dc) <- (r, c)
          done
        done)
      !cells_at;
    (grid, origin)
  end

let table_of_node table_node : Dart_html.Table.t =
  let raw_rows =
    List.map
      (fun tr ->
        List.filter_map
          (fun c ->
            match c with
            | Element { name = "td" | "th"; _ } -> Some (cell_of_node c)
            | _ -> None)
          (match tr with Element { children; _ } -> children | Text _ -> []))
      (rows_of_table table_node)
  in
  let raw_rows = List.filter (fun r -> r <> []) raw_rows in
  let grid, origin = expand raw_rows in
  { raw_rows; grid; origin }

let tables_of_html html = List.map table_of_node (find_all "table" (parse html))

(* ------------------------------------------------------------------ *)
(* Edit distances and the dictionary                                    *)
(* ------------------------------------------------------------------ *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) (fun j -> j) in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

(* Unrestricted Damerau–Levenshtein (Lowrance–Wagner), full matrix with
   a sentinel row and column. *)
let damerau_levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let inf = la + lb in
    let h = Array.make_matrix (la + 2) (lb + 2) 0 in
    h.(0).(0) <- inf;
    for i = 0 to la do
      h.(i + 1).(0) <- inf;
      h.(i + 1).(1) <- i
    done;
    for j = 0 to lb do
      h.(0).(j + 1) <- inf;
      h.(1).(j + 1) <- j
    done;
    let last_row = Array.make 256 0 in
    for i = 1 to la do
      let last_col = ref 0 in
      for j = 1 to lb do
        let i' = last_row.(Char.code b.[j - 1]) and j' = !last_col in
        let cost = if a.[i - 1] = b.[j - 1] then begin last_col := j; 0 end else 1 in
        h.(i + 1).(j + 1) <-
          List.fold_left min max_int
            [ h.(i).(j) + cost; h.(i + 1).(j) + 1; h.(i).(j + 1) + 1;
              h.(i').(j') + (i - i' - 1) + 1 + (j - j' - 1) ]
      done;
      last_row.(Char.code a.[i - 1]) <- i
    done;
    h.(la + 1).(lb + 1)
  end

let similarity a b =
  let la = String.length a and lb = String.length b in
  if la = 0 && lb = 0 then 1.0
  else 1.0 -. (float_of_int (damerau_levenshtein a b) /. float_of_int (max la lb))

(* A dictionary is its (normalized, canonical) entries in insertion order;
   a lookup scans them all. *)
type dict = (string * string) list

let normalize s = String.lowercase_ascii (String.trim s)

let dict_create words : dict =
  List.rev
    (List.fold_left
       (fun acc w -> let n = normalize w in if List.mem_assoc n acc then acc else (n, w) :: acc)
       [] words)

let lookup ?max_distance (dict : dict) word : Dart_textdict.Dictionary.match_result option =
  let n = normalize word in
  match List.assoc_opt n dict with
  | Some canonical -> Some { canonical; distance = 0; score = 1.0 }
  | None ->
    let budget = match max_distance with Some d -> d | None -> max 1 (String.length n / 4) in
    let best =
      List.fold_left
        (fun best (w, canonical) ->
          let d = damerau_levenshtein n w in
          if d > budget then best
          else
            match best with
            | Some (bw, bd, _) when bd < d || (bd = d && bw <= w) -> best
            | _ -> Some (w, d, canonical))
        None dict
    in
    Option.map
      (fun (w, d, canonical) ->
        { Dart_textdict.Dictionary.canonical; distance = d; score = similarity n w })
      best

(* ------------------------------------------------------------------ *)
(* Wrapper                                                              *)
(* ------------------------------------------------------------------ *)

let clean_numeric s =
  String.concat ""
    (String.split_on_char ' '
       (String.concat "" (String.split_on_char ',' (String.trim s))))

(* [dicts] maps a lexical domain name to its oracle dictionary. *)
let match_cell dicts (pc : Metadata.pattern_cell) raw =
  let trimmed = String.trim raw in
  match pc.domain with
  | Metadata.Std_string -> Some (trimmed, 1.0)
  | Std_integer ->
    Option.map (fun n -> (string_of_int n, 1.0)) (int_of_string_opt (clean_numeric trimmed))
  | Std_real ->
    let cleaned = clean_numeric trimmed in
    Option.map (fun _ -> (cleaned, 1.0)) (float_of_string_opt cleaned)
  | Lexical dom ->
    Option.map
      (fun (r : Dart_textdict.Dictionary.match_result) -> (r.canonical, r.score))
      (lookup (List.assoc dom dicts) trimmed)

let match_pattern meta dicts (pattern : Metadata.row_pattern) row : Matcher.instance option =
  if List.length row <> Array.length pattern.cells then None
  else begin
    let row = Array.of_list row in
    let results = Array.mapi (fun i pc -> match_cell dicts pc row.(i)) pattern.cells in
    if Array.exists Option.is_none results then None
    else begin
      let results = Array.map Option.get results in
      let bound = Array.map fst results in
      let hierarchy_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun i (pc : Metadata.pattern_cell) ->
               match pc.specializes with
               | None -> true
               | Some j -> Metadata.is_specialization_of meta ~item:bound.(i) ~ancestor:bound.(j))
             pattern.cells)
      in
      if not hierarchy_ok then None
      else begin
        let row_score = Metadata.combine_scores meta (Array.to_list (Array.map snd results)) in
        if row_score < meta.Metadata.min_row_score then None
        else
          Some
            { pattern;
              cells =
                Array.mapi
                  (fun i (bound, cell_score) -> { Matcher.raw = row.(i); bound; cell_score })
                  results;
              row_score }
      end
    end
  end

let best_instance meta dicts row =
  List.fold_left
    (fun best p ->
      match match_pattern meta dicts p row with
      | None -> best
      | Some inst ->
        (match best with
         | Some (b : Matcher.instance) when b.row_score >= inst.row_score -> best
         | _ -> Some inst))
    None meta.Metadata.patterns

let extract meta dicts html : Extractor.result =
  let reports =
    List.concat
      (List.mapi
         (fun table_index (t : Dart_html.Table.t) ->
           List.init (Array.length t.grid) (fun row_index ->
               let texts =
                 Array.to_list (Array.map (Option.value ~default:"") t.grid.(row_index))
               in
               let outcome =
                 match best_instance meta dicts texts with
                 | Some i -> Extractor.Matched i
                 | None -> Unmatched
               in
               { Extractor.table_index; row_index; texts; outcome }))
         (tables_of_html html))
  in
  { instances =
      List.filter_map
        (fun (r : Extractor.row_report) ->
          match r.outcome with Matched i -> Some i | Unmatched -> None)
        reports;
    reports }
