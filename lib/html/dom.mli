(** Error-tolerant HTML tree construction (subset of the HTML5 implied-end
    rules relevant to tabular documents). *)

type node =
  | Element of { name : string; attrs : (string * string) list; children : node list }
  | Text of string

val parse : string -> node list
(** Never fails: malformed markup degrades to text; stray end tags are
    ignored; unclosed elements close at EOF; [</td>], [</tr>], [</li>],
    [</p>] may be omitted. *)

val attr : node -> string -> string option
val children : node -> node list
val name : node -> string option

val find_all : string -> node list -> node list
(** Depth-first search for elements with a tag name. *)

val child_elements : string -> node -> node list

val text_content : node -> string
(** Concatenated descendant text, whitespace-normalized. *)

val pp : Format.formatter -> node -> unit
