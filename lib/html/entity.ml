(** HTML character-entity decoding (the handful that occur in table data). *)

let named = function
  | "amp" -> Some "&"
  | "lt" -> Some "<"
  | "gt" -> Some ">"
  | "quot" -> Some "\""
  | "apos" -> Some "'"
  | "nbsp" -> Some " "
  | "ndash" -> Some "-"
  | "mdash" -> Some "--"
  | _ -> None

(* Decode [&name;], [&#NN;] and [&#xHH;] references in [s]. *)
let decode_refs s =
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
            | Some _ -> Some "?" (* non-ASCII: placeholder, tables only need ASCII *)
            | None -> None
          end
          else named name
        in
        (match replacement with
         | Some r -> Buffer.add_string buf r; go (j + 1)
         | None -> Buffer.add_char buf '&'; go (i + 1))
      | _ -> Buffer.add_char buf '&'; go (i + 1)
    end
    else begin
      (* copy the run up to the next reference in one go *)
      let j = match String.index_from_opt s i '&' with Some j -> j | None -> len in
      Buffer.add_substring buf s i (j - i);
      go j
    end
  in
  go 0;
  Buffer.contents buf

(** Decode [&name;], [&#NN;] and [&#xHH;] references; unknown references are
    left verbatim.  Text without [&] is returned as is, uncopied. *)
let decode s = if String.contains s '&' then decode_refs s else s

(** Encode text for safe inclusion in HTML content or attributes. *)
let encode s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf
