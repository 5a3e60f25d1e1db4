(* Source lint over lib/: no shared [lazy] values.

   Forcing one lazy value from two domains at once raises
   [CamlinternalLazy.Undefined] in OCaml 5, and a systhread can yield
   inside a forcing thunk; either way a query or a request dies far from
   its cause. Values shared across domains are therefore built eagerly, at
   module load or when their owner is created. This test fails on the
   [lazy] keyword or the [Lazy] module used in code under lib/ — comments,
   string and character literals do not count. *)

let check = Alcotest.check

(* files allowed to use laziness, as paths relative to lib/ *)
let allowlist : string list = []

(* [src] with every comment, string literal and character literal blanked
   to spaces (newlines kept, so offsets and line numbers still match) *)
let code_only src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank a b =
    for i = a to min b n - 1 do
      if Bytes.get out i <> '\n' then Bytes.set out i ' '
    done
  in
  (* [i] just past an opening double quote: the index past its closing one *)
  let rec string_end i =
    if i >= n then n
    else
      match src.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  (* [i] at a single quote: the index past the character literal it opens,
     or [None] when it is a type variable or an apostrophe *)
  let char_end i =
    if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then Some (i + 3)
    else if i + 3 < n && src.[i + 1] = '\\' then
      Option.map succ (String.index_from_opt src (i + 3) '\'')
    else None
  in
  let opens i = i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' in
  let closes i = i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' in
  (* comments nest, and strings inside them are lexed as strings *)
  let rec comment_end depth i =
    if i >= n then n
    else if opens i then comment_end (depth + 1) (i + 2)
    else if closes i then if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
    else if src.[i] = '"' then comment_end depth (string_end (i + 1))
    else
      match if src.[i] = '\'' then char_end i else None with
      | Some j -> comment_end depth j
      | None -> comment_end depth (i + 1)
  in
  let rec code i =
    if i < n then begin
      let skip_to j =
        blank i j;
        code j
      in
      if opens i then skip_to (comment_end 1 (i + 2))
      else if src.[i] = '"' then skip_to (string_end (i + 1))
      else
        match if src.[i] = '\'' then char_end i else None with
        | Some j -> skip_to j
        | None -> code (i + 1)
    end
  in
  code 0;
  Bytes.to_string out

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* 1-based line numbers of every [lazy] keyword or [Lazy.] use in code *)
let lazy_uses src =
  let code = code_only src in
  let n = String.length code in
  let word_at i w =
    let l = String.length w in
    i + l <= n
    && String.sub code i l = w
    && (i = 0 || not (is_ident_char code.[i - 1]))
  in
  let hits = ref [] and line = ref 1 in
  for i = 0 to n - 1 do
    if code.[i] = '\n' then incr line
    else if
      (word_at i "lazy"
      && (i + 4 >= n || not (is_ident_char code.[i + 4])))
      || word_at i "Lazy."
    then hits := !line :: !hits
  done;
  List.rev !hits

(* every .ml file under [dir], as paths relative to it, sorted *)
let rec ml_files dir rel =
  Sys.readdir (Filename.concat dir rel)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let r = if rel = "" then f else Filename.concat rel f in
         if Sys.is_directory (Filename.concat dir r) then ml_files dir r
         else if Filename.check_suffix f ".ml" then [ r ]
         else [])

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* run from the build tree by [dune runtest], from the root by [dune exec] *)
let lib_dir = if Sys.file_exists "../lib/obs" then "../lib" else "lib"

let test_scanner () =
  let clean =
    "(* a lazy comment (* nested: Lazy.force *) \"*)\" *)\n\
     let s = \"lazy Lazy.force\" and c = '\"' and q = '\\'' in\n\
     let lazy_list = [] and is_lazy' = () and my_lazy = 0 in\n\
     let f (type a) (x : 'a) = x\n"
  in
  check Alcotest.(list int) "comments, literals and identifiers pass" []
    (lazy_uses clean);
  check Alcotest.(list int) "keyword and module caught" [ 1; 3 ]
    (lazy_uses "let t = lazy (f ())\n(* Lazy.force *)\nlet g () = Lazy.force t\n")

let test_no_shared_lazy () =
  let files = ml_files lib_dir "" in
  (* the scan must reach the files whose comments use the word *)
  List.iter
    (fun f ->
      check Alcotest.bool (f ^ " scanned") true (List.mem f files))
    [ "core/method_chunk.ml"; "storage/lru.ml"; "obs/cell.ml" ];
  let offenders =
    List.concat_map
      (fun f ->
        if List.mem f allowlist then []
        else
          List.map
            (fun l -> Printf.sprintf "lib/%s:%d" f l)
            (lazy_uses (read_file (Filename.concat lib_dir f))))
      files
  in
  check Alcotest.(list string) "lazy in lib/ code" [] offenders

let () =
  Alcotest.run "svr_lint"
    [ ( "no shared lazy",
        [ Alcotest.test_case "scanner" `Quick test_scanner;
          Alcotest.test_case "lib sources" `Quick test_no_shared_lazy ] ) ]
