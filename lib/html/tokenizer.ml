(** HTML tokenizer.

    A pragmatic tokenizer for the document fragments DART ingests: start and
    end tags with quoted/unquoted attributes, text, comments, doctype, and
    raw-text handling for [<script>]/[<style>].  It never fails: malformed
    markup degrades to text, matching the error-tolerant spirit of browser
    parsing that real-world wrappers must cope with. *)

type token =
  | Start_tag of { name : string; attrs : (string * string) list; self_closing : bool }
  | End_tag of string
  | Text of string

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '-'
  || c = '_' || c = ':'

(* The name in [s.[i..j)], lowercased; copied once, and only mapped when
   it holds an uppercase letter. *)
let name_of s i j =
  let rec has_upper k = k < j && ((s.[k] >= 'A' && s.[k] <= 'Z') || has_upper (k + 1)) in
  if has_upper i then String.lowercase_ascii (String.sub s i (j - i)) else String.sub s i (j - i)

(** Feed the tokens of a document to [emit], in order.  Text tokens are
    entity-decoded; whitespace-only text between tags is preserved (the
    tree builder drops it).

    Pending text is always one contiguous slice of [s] (a ['<'] that opens
    no tag is itself text), so a text token is a single [String.sub] of
    the input, decoded only when it holds an ['&']. *)
let iter (emit : token -> unit) (s : string) =
  let len = String.length s in
  let flush start i =
    if i > start then emit (Text (Entity.decode (String.sub s start (i - start))))
  in
  let rec skip_space i = if i < len && is_space s.[i] then skip_space (i + 1) else i in
  let rec name_end i = if i < len && is_name_char s.[i] then name_end (i + 1) else i in
  let read_attr_value i =
    if i >= len then ("", i)
    else if s.[i] = '"' || s.[i] = '\'' then begin
      let quote = s.[i] in
      match String.index_from_opt s (i + 1) quote with
      | Some j -> (Entity.decode (String.sub s (i + 1) (j - i - 1)), j + 1)
      | None -> (Entity.decode (String.sub s (i + 1) (len - i - 1)), len)
    end
    else begin
      let rec go j = if j < len && not (is_space s.[j]) && s.[j] <> '>' then go (j + 1) else j in
      let j = go i in
      (Entity.decode (String.sub s i (j - i)), j)
    end
  in
  let rec read_attrs i acc =
    let i = skip_space i in
    if i >= len then (List.rev acc, i, false)
    else if s.[i] = '>' then (List.rev acc, i + 1, false)
    else if s.[i] = '/' && i + 1 < len && s.[i + 1] = '>' then (List.rev acc, i + 2, true)
    else begin
      let j = name_end i in
      if j = i then (* garbage: skip one char to guarantee progress *)
        read_attrs (i + 1) acc
      else begin
        let name = name_of s i j in
        let i = skip_space j in
        if i < len && s.[i] = '=' then begin
          let i = skip_space (i + 1) in
          let v, i = read_attr_value i in
          read_attrs i ((name, v) :: acc)
        end
        else read_attrs i ((name, "") :: acc)
      end
    end
  in
  (* Raw-text elements: the position of the first ["</" ^ tag] (any case)
     at or after [i], or [len]; [tag] is lowercase. *)
  let find_raw_end i tag =
    let tlen = String.length tag in
    let rec at j k = k >= tlen || (Char.lowercase_ascii s.[j + 2 + k] = tag.[k] && at j (k + 1)) in
    let rec go j =
      if j + 2 + tlen > len then len
      else if s.[j] = '<' && s.[j + 1] = '/' && at j 0 then j
      else go (j + 1)
    in
    go i
  in
  (* End of a comment whose body starts at [j]: just past ["-->"], or [len]. *)
  let rec comment_end j =
    if j + 2 >= len then len
    else if s.[j] = '-' && s.[j + 1] = '-' && s.[j + 2] = '>' then j + 3
    else comment_end (j + 1)
  in
  let rec next_lt i = if i < len && s.[i] <> '<' then next_lt (i + 1) else i in
  (* [s.[start..i)] is pending text. *)
  let rec loop start i =
    let i = next_lt i in
    if i >= len then flush start len
    else if i + 3 < len && s.[i + 1] = '!' && s.[i + 2] = '-' && s.[i + 3] = '-' then begin
      flush start i;
      let j = comment_end (i + 4) in
      loop j j
    end
    else if i + 1 < len && s.[i + 1] = '!' then begin
      flush start i;
      (* doctype or other declaration: skip to '>' *)
      match String.index_from_opt s i '>' with
      | Some j -> loop (j + 1) (j + 1)
      | None -> ()
    end
    else if i + 1 < len && s.[i + 1] = '/' then begin
      flush start i;
      let j = name_end (i + 2) in
      match String.index_from_opt s j '>' with
      | Some k ->
        if j > i + 2 then emit (End_tag (name_of s (i + 2) j));
        loop (k + 1) (k + 1)
      | None -> ()
    end
    else begin
      let j = name_end (i + 1) in
      if j = i + 1 then (* '<' followed by non-name: literal text *)
        loop start (i + 1)
      else begin
        flush start i;
        let name = name_of s (i + 1) j in
        let attrs, j, self_closing = read_attrs j [] in
        emit (Start_tag { name; attrs; self_closing });
        if (name = "script" || name = "style") && not self_closing then begin
          let k = find_raw_end j name in
          (* raw content dropped: scripts/styles carry no table data *)
          if k >= len then ()
          else begin
            emit (End_tag name);
            match String.index_from_opt s k '>' with
            | Some e -> loop (e + 1) (e + 1)
            | None -> ()
          end
        end
        else loop j j
      end
    end
  in
  loop 0 0

let tokenize s =
  let out = ref [] in
  iter (fun tok -> out := tok :: !out) s;
  List.rev !out
