(** Edit distances and similarity scores for lexical repair.

    The wrapper corrects symbol-recognition errors in non-numerical strings
    against a scenario dictionary (paper §2, §6.2: "bgnning cesh" →
    "beginning cash").  Damerau–Levenshtein (with adjacent transpositions)
    matches the OCR channel's error modes. *)

(* Monomorphic: [Stdlib.min] would go through polymorphic compare. *)
let min3 (x : int) y z =
  let m = if x < y then x else y in
  if m < z then m else z

(** Classic Levenshtein distance (insert/delete/substitute, unit costs). *)
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
        cur.(j) <- min3 (cur.(j - 1) + 1) (prev.(j) + 1) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

(** Damerau–Levenshtein: Levenshtein plus adjacent transposition as a single
    edit.  This is the {e unrestricted} variant (a substring may be edited
    after being transposed), not the cheaper optimal-string-alignment one:
    OSA violates the triangle inequality (d("ca","abc") = 3 > d("ca","ac") +
    d("ac","abc") = 2), which breaks the BK-tree's pruning invariant and
    made radius queries silently drop matches.  True DL is a metric.

    The workspace is allocated per call, never shared: lookups run
    concurrently on pool domains and on systhreads. *)
let damerau_levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let inf = la + lb in
    (* h is offset by one row/column of sentinels (the standard DL layout),
       stored flat for locality: h.((i+1)*w + j+1) is the distance between
       a[0..i) and b[0..j).  The transposition case reads an arbitrary
       earlier row, so the full matrix must be kept.  After the matrix,
       h.(rows + j) is the last row i' < i with a[i'-1] = b[j-1]: the
       textbook per-byte table, kept per column of b instead. *)
    let w = lb + 2 in
    let rows = (la + 2) * w in
    let h = Array.make (rows + lb + 1) 0 in
    h.(0) <- inf;
    for i = 0 to la do
      h.((i + 1) * w) <- inf;
      h.(((i + 1) * w) + 1) <- i
    done;
    for j = 0 to lb do
      h.(j + 1) <- inf;
      h.(w + j + 1) <- j
    done;
    for i = 1 to la do
      let ca = a.[i - 1] in
      let last_col = ref 0 in (* last column where a.[i-1] occurred in b *)
      let base = (i + 1) * w and prev = i * w in
      for j = 1 to lb do
        let i' = h.(rows + j) and j' = !last_col in
        let cost =
          if ca = b.[j - 1] then begin
            last_col := j;
            h.(rows + j) <- i; (* read above for this row, so safe to move on *)
            0
          end
          else 1
        in
        let d =
          min3 (h.(prev + j) + cost) (* substitute / match *)
            (h.(base + j) + 1) (* insert *)
            (h.(prev + j + 1) + 1) (* delete *)
        in
        let t = h.((i' * w) + j') + (i - i' - 1) + 1 + (j - j' - 1) in (* transpose *)
        h.(base + j + 1) <- (if t < d then t else d)
      done
    done;
    h.(((la + 1) * w) + lb + 1)
  end

(** Normalized similarity in [0, 1]: 1 = identical, towards 0 with distance.
    This is the cell matching score of §6.2 (Example 13 shows a 90% score
    for a near-match). *)
let similarity a b =
  let la = String.length a and lb = String.length b in
  if la = 0 && lb = 0 then 1.0
  else begin
    let d = damerau_levenshtein a b in
    1.0 -. (float_of_int d /. float_of_int (max la lb))
  end

(** Case/whitespace-insensitive similarity: the usual preprocessing for
    scanned labels. *)
let similarity_normalized a b =
  let norm s = String.lowercase_ascii (String.trim s) in
  similarity (norm a) (norm b)
