(* Differential tests of the acquisition front end against [Acquire_oracle]:
   tokens, trees, table grids, edit distances, dictionary lookups,
   extraction results and detection must match it exactly — on
   OCR-noisy scenario documents, on random markup soup and on random
   strings — plus the bounds on hostile spans, long raw text and long
   comments, and lookups racing on domains and threads. *)

open Dart_html
open Dart_textdict
open Dart_wrapper
module Oracle = Acquire_oracle

let t name f = Alcotest.test_case name `Quick f

let fail_diff what show a b =
  QCheck.Test.fail_reportf "%s differs:@.new:    %s@.oracle: %s" what (show a) (show b)

let same what show a b = a = b || fail_diff what show a b

let show_tables ts =
  String.concat " | "
    (List.map
       (fun tbl ->
         String.concat "; "
           (List.init (Table.num_rows tbl) (fun r -> String.concat "," (Table.row_texts tbl r))))
       ts)

let show_nodes ns = String.concat "" (List.map (Format.asprintf "%a" Dom.pp) ns)

let show_tokens ts =
  String.concat " "
    (List.map
       (function
         | Tokenizer.Start_tag { name; attrs; self_closing } ->
           Printf.sprintf "<%s%s%s>" name
             (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%S" k v) attrs))
             (if self_closing then "/" else "")
         | End_tag n -> "</" ^ n ^ ">"
         | Text s -> Printf.sprintf "%S" s)
       ts)

let show_extraction (r : Extractor.result) =
  String.concat "\n"
    (List.map
       (fun (rep : Extractor.row_report) ->
         Printf.sprintf "%d.%d %s -> %s" rep.table_index rep.row_index
           (String.concat "," rep.texts)
           (match rep.outcome with
            | Unmatched -> "unmatched"
            | Matched i ->
              Printf.sprintf "%s %h [%s]" i.pattern.pattern_name i.row_score
                (String.concat ","
                   (Array.to_list
                      (Array.map
                         (fun (c : Matcher.instance_cell) ->
                           Printf.sprintf "%S=>%S@%h" c.raw c.bound c.cell_score)
                         i.cells)))))
       r.reports)

let show_match = function
  | None -> "none"
  | Some (m : Dictionary.match_result) ->
    Printf.sprintf "%S d=%d s=%h" m.canonical m.distance m.score

(* Everything the HTML layer exposes, new against oracle. *)
let html_agrees html =
  same "tokens" show_tokens (Tokenizer.tokenize html) (Oracle.tokenize html)
  && (let tree = Dom.parse html in
      same "tree" show_nodes tree (Oracle.parse html)
      && List.for_all
           (fun n -> same "text_content" Fun.id (Dom.text_content n) (Oracle.text_content n))
           (tree @ Dom.find_all "td" tree @ Dom.find_all "tr" tree))
  && same "tables" show_tables (Table.of_html html) (Oracle.tables_of_html html)

(* ------------------------------------------------------------------ *)
(* Scenario documents                                                  *)
(* ------------------------------------------------------------------ *)

let scenario_domains = function
  | Test_agg_index.Cash_budget -> Dart.Budget_scenario.domains
  | Balance_sheet -> Dart.Balance_scenario.domains
  | Catalog -> Dart.Catalog_scenario.domains
  | Quarterly -> Dart.Quarterly_scenario.domains

let show_detect v =
  String.concat "; "
    (List.map
       (fun ((k : Dart_constraints.Agg_constraint.t), thetas) ->
         k.name ^ " " ^ String.concat " " (List.map Test_agg_index.show_theta thetas))
       v)

let document_agrees (kind, years, errors, seed) =
  let html, scenario = Test_agg_index.document kind ~years ~errors seed in
  let meta = scenario.Dart.Scenario.metadata in
  let dicts = List.map (fun (d, words) -> (d, Oracle.dict_create words)) (scenario_domains kind) in
  let extraction = Extractor.extract meta html and oracle = Oracle.extract meta dicts html in
  html_agrees html
  && same "extraction" show_extraction extraction oracle
  &&
  let db_of instances =
    (Db_gen.generate meta scenario.mapping instances
       (Dart_relational.Database.create scenario.schema)).db
  in
  let db = (Dart.Pipeline.acquire scenario html).db in
  same "database" (Format.asprintf "%a" Dart_relational.Database.pp) db (db_of oracle.instances)
  && same "detect" show_detect (Dart.Pipeline.detect scenario db)
       (List.filter_map
          (fun k -> match Scan_oracle.violations db k with [] -> None | v -> Some (k, v))
          scenario.constraints)

let document_property =
  QCheck.Test.make ~count:40 ~long_factor:10
    ~name:"acquisition = oracle on noisy scenario documents"
    (QCheck.make
       ~print:(fun (kind, years, errors, seed) ->
         Printf.sprintf "%s years=%d errors=%d seed=%d" (Test_agg_index.kind_name kind) years
           errors seed)
       QCheck.Gen.(
         quad
           (oneofl Test_agg_index.[ Cash_budget; Balance_sheet; Catalog; Quarterly ])
           (oneofl [ 1; 3; 8; 16; 48 ]) (int_range 0 3) (int_bound 1_000_000)))
    document_agrees

(* ------------------------------------------------------------------ *)
(* Random markup                                                       *)
(* ------------------------------------------------------------------ *)

let fragments =
  [ "<table>"; "</table>"; "<TABLE border=1>"; "<tr>"; "</tr>"; "<TR>"; "<td>"; "</td>";
    "<TD>"; "</Td>"; "<th>"; "<thead>"; "<tbody>"; "</tbody>"; "<tfoot>"; "<p>"; "</p>";
    "<li>"; "<br>"; "<br/>"; "<img src=x>"; "<div>"; "</div>"; "</span>"; "<td rowspan=\"2\">";
    "<td colspan=3>"; "<td colspan=\" 2 \">"; "<td rowspan='0'>"; "<td colspan=\"0x2\">";
    "<td colspan=+2>"; "<td colspan=007>"; "<td colspan=\"3000000\">"; "<td rowspan=99999999>";
    "<td colspan=2 rowspan=2>"; "&amp;"; "&lt;"; "&#65;"; "&#x41;"; "&#300;"; "&nbsp;"; "&bogus;";
    "&"; "&#;"; "&ndash;"; "<!-- c -->"; "<!-->"; "<!--"; "-->"; "<!DOCTYPE html>"; "<!x";
    "<script>a<b</td></script>"; "<SCRIPT>x</ScRiPt>"; "<style>td{}</style>"; "<script>";
    "</script"; "<"; ">"; "</"; "< td>"; "<3"; "\""; "'"; "="; " "; "  "; "\t"; "\n"; "\r\n";
    "\012"; "text"; "Cash Sales"; "1,234"; " 42 "; "x y"; "<x:y a=b/>"; "<a title='q&amp;r'>" ]

let markup_gen =
  QCheck.Gen.(
    let soup = map (String.concat "") (list_size (int_range 0 40) (oneofl fragments)) in
    oneof
      [ soup;
        map (fun s -> "<table><tr><td>" ^ s ^ "</table>") soup;
        string_size ~gen:(oneofl [ '<'; '>'; '/'; '!'; '-'; 't'; 'd'; 'r'; ' '; '&'; ';'; 'a' ])
          (int_range 0 60);
        string_size ~gen:(char_range '\000' '\255') (int_range 0 100) ])

let markup_property =
  QCheck.Test.make ~count:1000 ~long_factor:10 ~name:"HTML layer = oracle on random markup"
    (QCheck.make ~print:(Printf.sprintf "%S") markup_gen)
    html_agrees

(* ------------------------------------------------------------------ *)
(* Edit distances and dictionary lookups                               *)
(* ------------------------------------------------------------------ *)

(* Small alphabets repeat characters; the second word is often the first
   with adjacent swaps, edits or a long shared run. *)
let word_pair_gen =
  QCheck.Gen.(
    let word = string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'a'; ' '; 'Z' ]) (int_range 0 12) in
    let swap s i =
      if String.length s < 2 then s
      else begin
        let b = Bytes.of_string s and i = i mod (String.length s - 1) in
        Bytes.set b i s.[i + 1];
        Bytes.set b (i + 1) s.[i];
        Bytes.to_string b
      end
    in
    oneof
      [ pair word word;
        map2 (fun w is -> (w, List.fold_left swap w is)) word (list_size (int_range 1 3) nat);
        map2 (fun w k -> (w, String.make k 'a' ^ w)) word (int_range 0 4);
        pair (string_size (int_range 0 20)) (string_size (int_range 0 20)) ])

let distance_property =
  QCheck.Test.make ~count:2000 ~long_factor:10 ~name:"edit distances = oracle"
    (QCheck.make ~print:(fun (a, b) -> Printf.sprintf "%S %S" a b) word_pair_gen)
    (fun (a, b) ->
      same "levenshtein" string_of_int (Edit_distance.levenshtein a b) (Oracle.levenshtein a b)
      && same "damerau_levenshtein" string_of_int (Edit_distance.damerau_levenshtein a b)
           (Oracle.damerau_levenshtein a b)
      && same "similarity" (Printf.sprintf "%h") (Edit_distance.similarity a b)
           (Oracle.similarity a b))

(* A scenario vocabulary, and the words an OCR channel makes of it. *)
let vocabulary = Dart_datagen.Cash_budget.subsections @ Dart_datagen.Cash_budget.sections

let lookup_gen =
  QCheck.Gen.(
    let noisy =
      map2
        (fun w seed ->
          Dart_ocr.Noise.corrupt_string_surely (Dart_rand.Prng.create seed) w)
        (oneofl vocabulary) nat
    in
    let dict =
      oneof [ return vocabulary; list_size (int_range 0 30) (string_size (int_range 0 8)) ]
    in
    pair dict
      (oneof
         [ noisy; oneofl vocabulary; map String.uppercase_ascii (oneofl vocabulary);
           map (fun w -> "  " ^ w ^ "\t") noisy; string_size (int_range 0 20) ]))

let lookup_agrees (words, w) =
  let dict = Dictionary.create words and oracle = Oracle.dict_create words in
  same "lookup" show_match (Dictionary.lookup dict w) (Oracle.lookup oracle w)
  && same "lookup ~max_distance:3" show_match
       (Dictionary.lookup ~max_distance:3 dict w) (Oracle.lookup ~max_distance:3 oracle w)

let lookup_property =
  QCheck.Test.make ~count:500 ~long_factor:10 ~name:"Dictionary.lookup = oracle"
    (QCheck.make
       ~print:(fun (ws, w) -> Printf.sprintf "%S in [%s]" w (String.concat ";" ws))
       lookup_gen)
    lookup_agrees

(* Lookups share no scratch state: two domains, each with two threads,
   all looking up the same words, get the sequential answers. *)
let concurrent_lookups () =
  let dict = Dictionary.create vocabulary in
  let prng = Dart_rand.Prng.create 7 in
  let queries =
    List.concat_map
      (fun w -> [ w; Dart_ocr.Noise.corrupt_string_surely prng w ])
      vocabulary
  in
  let expected = List.map (Dictionary.lookup dict) queries in
  let run () = List.init 50 (fun _ -> List.map (Dictionary.lookup dict) queries) in
  let in_threads () =
    let results = Array.make 2 [] in
    let threads = List.init 2 (fun i -> Thread.create (fun () -> results.(i) <- run ()) ()) in
    List.iter Thread.join threads;
    List.concat (Array.to_list results)
  in
  let domains = List.init 2 (fun _ -> Domain.spawn in_threads) in
  let answers = List.concat_map Domain.join domains in
  Alcotest.(check int) "rounds" 200 (List.length answers);
  List.iter
    (fun got -> Alcotest.(check bool) "same answers as sequential" true (got = expected))
    answers

(* ------------------------------------------------------------------ *)
(* Hostile input                                                        *)
(* ------------------------------------------------------------------ *)

let allocated f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let hostile_tests =
  [ t "huge colspan and rowspan are clamped (bounded memory)" (fun () ->
        let html =
          "<table><tr><td colspan=\"3000000\">x</td></tr>\
           <tr><td colspan=99999999999999999999 rowspan=\"3000000\">y</td></tr></table>"
        in
        let tables, words = allocated (fun () -> Table.of_html html) in
        match tables with
        | [ tbl ] ->
          Alcotest.(check int) "cols clamped to 1000" 1000 (Table.num_cols tbl);
          Alcotest.(check int) "rows" 2 (Table.num_rows tbl);
          Alcotest.(check (option string)) "last column" (Some "y")
            (Table.cell_text tbl ~row:1 ~col:999);
          Alcotest.(check bool) "under 1 MB allocated" true (words *. 8. < 1e6)
        | _ -> Alcotest.fail "expected one table");
    t "span values are digits only" (fun () ->
        let spans v =
          let html = Printf.sprintf "<table><tr><td colspan=\"%s\">a</td></tr></table>" v in
          match Table.of_html html with
          | [ tbl ] -> Table.num_cols tbl
          | _ -> -1
        in
        List.iter
          (fun (v, cols) -> Alcotest.(check int) v cols (spans v))
          [ ("2", 2); (" 3 ", 3); ("007", 7); ("0", 1); ("", 1); ("0x2", 1); ("+2", 1);
            ("-2", 1); ("2px", 1); ("1_0", 1); ("1000", 1000); ("1001", 1000) ]);
    t "1 MB script and 1 MB comment scan in linear time, no per-byte garbage" (fun () ->
        let mb = 1 lsl 20 in
        let body pattern = String.init mb (fun i -> pattern.[i mod String.length pattern]) in
        let html =
          "<p>x</p><script>" ^ body "a</scrip-->- <!-" ^ "</SCRIPT><!--"
          ^ body "a--b->-c</script " ^ "--><table><tr><td>y</table>"
        in
        let tokens, words = allocated (fun () -> Tokenizer.tokenize html) in
        Alcotest.(check int) "tokens" 10 (List.length tokens);
        Alcotest.(check bool) "well under one word per input byte" true
          (words < float_of_int mb /. 8.));
  ]

let suite =
  hostile_tests
  @ [ t "dictionary lookups from 2 domains x 2 threads" concurrent_lookups ]
  @ List.map Qcheck_util.to_alcotest
      [ document_property; markup_property; distance_property; lookup_property ]
