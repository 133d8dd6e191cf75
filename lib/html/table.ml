(** Table model with rowspan/colspan grid expansion.

    The paper's wrapper must handle tables with "variable structure" —
    cells spanning multiple rows and columns with no pre-determined scheme
    (Main contributions, item 1; Example 13's multi-row year cell).  This
    module turns a [<table>] element into a logical grid in which a
    spanning cell's text is visible at {e every} (row, column) it covers,
    so the year "2003" attaches to all document rows adjacent to the
    multi-row cell. *)

type cell = {
  text : string;
  rowspan : int;
  colspan : int;
  header : bool;   (** was a [<th>] *)
}

type t = {
  raw_rows : cell list list;  (** cells as written, per [<tr>] *)
  grid : string option array array; (** expanded logical grid *)
  origin : (int * int) array array;
  (** for each grid position, the (row, col) where its cell starts —
      lets callers distinguish a spanning continuation from a new cell *)
}

(* A span attribute as the HTML table model reads it: trimmed digits only,
   0 or anything else is 1, and values above [limit] are [limit] — so a
   hostile [colspan="3000000"] costs 1000 columns, not millions. *)
let span_attr node name ~limit =
  match Option.map String.trim (Dom.attr node name) with
  | Some v when String.for_all (fun c -> c >= '0' && c <= '9') v ->
    Int.max 1 (String.fold_left (fun n c -> Int.min limit ((10 * n) + Char.code c - 48)) 0 v)
  | _ -> 1

let cell_of_node node =
  { text = Dom.text_content node;
    rowspan = span_attr node "rowspan" ~limit:65534;
    colspan = span_attr node "colspan" ~limit:1000;
    header = (match node with Dom.Element { name = "th"; _ } -> true | _ -> false) }

(** Rows of a [<table>] element, traversing thead/tbody/tfoot in document
    order but not descending into nested tables. *)
let rows_of_table table_node =
  let rec collect node acc =
    match node with
    | Dom.Text _ -> acc
    | Dom.Element { name = "table"; _ } when node != table_node -> acc
    | Dom.Element { name = "tr"; _ } -> node :: acc
    | Dom.Element { children; _ } -> List.fold_left (fun acc c -> collect c acc) acc children
  in
  List.rev (collect table_node [])

(** Build the expanded grid from raw rows (the HTML table layout algorithm
    restricted to what rowspan/colspan require). *)
let expand (raw_rows : cell list list) =
  let nrows = List.length raw_rows in
  if nrows = 0 then ([||], [||])
  else begin
    (* Simulate placement: walk rows left to right, skipping columns already
       claimed by spanning cells from earlier rows, recording placements and
       the resulting table width.  A span claims a column for a run of rows
       from the current one down, so [busy.(c)] — the first row at which
       column [c] is free again — says everything about occupancy. *)
    let width = ref 0 in
    let busy = ref (Array.make 16 0) in
    let cells_at = ref [] in (* (r, c, cell) placements *)
    List.iteri
      (fun r row ->
        let col = ref 0 in
        let is_free c = c >= Array.length !busy || !busy.(c) <= r in
        List.iter
          (fun cell ->
            while not (is_free !col) do incr col done;
            cells_at := (r, !col, cell) :: !cells_at;
            let last = !col + cell.colspan in
            if last > Array.length !busy then begin
              let b = Array.make (Int.max last (2 * Array.length !busy)) 0 in
              Array.blit !busy 0 b 0 (Array.length !busy);
              busy := b
            end;
            let until = r + Int.min cell.rowspan (nrows - r) in
            for c = !col to last - 1 do
              if !busy.(c) < until then !busy.(c) <- until
            done;
            width := Int.max !width last;
            col := last)
          row)
      raw_rows;
    let grid = Array.make_matrix nrows !width None in
    let origin = Array.make_matrix nrows !width (-1, -1) in
    (* Earlier placements win where spans overlap: they are written last. *)
    List.iter
      (fun (r, c, cell) ->
        let text = Some cell.text and o = (r, c) in
        for dr = 0 to min (cell.rowspan - 1) (nrows - 1 - r) do
          for dc = 0 to min (cell.colspan - 1) (!width - 1 - c) do
            grid.(r + dr).(c + dc) <- text;
            origin.(r + dr).(c + dc) <- o
          done
        done)
      !cells_at;
    (grid, origin)
  end

let of_node table_node =
  let raw_rows =
    List.map
      (fun tr ->
        List.filter_map
          (fun c ->
            match Dom.name c with
            | Some "td" | Some "th" -> Some (cell_of_node c)
            | _ -> None)
          (Dom.children tr))
      (rows_of_table table_node)
  in
  let raw_rows = List.filter (fun r -> r <> []) raw_rows in
  let grid, origin = expand raw_rows in
  { raw_rows; grid; origin }

(** All tables of a parsed document, in document order. *)
let of_document nodes = List.map of_node (Dom.find_all "table" nodes)

(** Parse HTML text and extract its tables. *)
let of_html html = of_document (Dom.parse html)

let num_rows t = Array.length t.grid
let num_cols t = if Array.length t.grid = 0 then 0 else Array.length t.grid.(0)

(** Text at a logical grid position ([None] where no cell covers it). *)
let cell_text t ~row ~col =
  if row < 0 || row >= num_rows t || col < 0 || col >= num_cols t then None
  else t.grid.(row).(col)

(** Whether the cell at a position starts there (vs. being a rowspan/colspan
    continuation). *)
let is_cell_origin t ~row ~col =
  row >= 0 && row < num_rows t && col >= 0 && col < num_cols t
  && t.origin.(row).(col) = (row, col)

(** Logical row as a list of texts (continuations included). *)
let row_texts t row =
  Array.fold_right (fun c acc -> Option.value c ~default:"" :: acc) t.grid.(row) []

(* ------------------------------------------------------------------ *)
(* Rendering (used by the generators to produce input documents)       *)
(* ------------------------------------------------------------------ *)

type render_cell = { rtext : string; rrowspan : int; rcolspan : int; rheader : bool }

let render_cell ?(rowspan = 1) ?(colspan = 1) ?(header = false) text =
  { rtext = text; rrowspan = rowspan; rcolspan = colspan; rheader = header }

(** Render rows of spanning cells as an HTML table. *)
let to_html ?(attrs = "border=\"1\"") (rows : render_cell list list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "<table %s>\n" attrs);
  List.iter
    (fun row ->
      Buffer.add_string buf "  <tr>";
      List.iter
        (fun c ->
          let tag = if c.rheader then "th" else "td" in
          Buffer.add_string buf (Printf.sprintf "<%s" tag);
          if c.rrowspan > 1 then Buffer.add_string buf (Printf.sprintf " rowspan=\"%d\"" c.rrowspan);
          if c.rcolspan > 1 then Buffer.add_string buf (Printf.sprintf " colspan=\"%d\"" c.rcolspan);
          Buffer.add_string buf (Printf.sprintf ">%s</%s>" (Entity.encode c.rtext) tag))
        row;
      Buffer.add_string buf "</tr>\n")
    rows;
  Buffer.add_string buf "</table>\n";
  Buffer.contents buf
