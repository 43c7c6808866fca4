(* Fail when a library interface exports a value nothing else reads.

   Usage: check_exports.exe CHECKED [READERS...]

   Every [val] in a [.cmti] under the directory CHECKED must be read by
   some other compilation unit whose [.cmt] lies under CHECKED or one of
   the READERS directories, unless its doc comment says "test hook" (a
   seam the product exposes for tests).  Tests are not readers: code
   only tests run belongs in test/.  Reads are taken from the typed
   trees dune writes for [dune build @check], so opens, [Lib.M] and
   [Lib__.M] paths and local [module M = Lib.M] aliases all resolve to
   the value they name.  Prints one [file:line] per unread value and
   exits 1 if there is one. *)

open Typedtree

let rec cmt_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then cmt_files p
         else if
           Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti"
         then [ p ]
         else [])

let load path =
  let info = Cmt_format.read_cmt path in
  (info.Cmt_format.cmt_modname, info.Cmt_format.cmt_annots)

(* Rewrites [Lib; M] and [Lib__; M] to the unit [Lib__M] whenever that
   unit exists, so every path to a value starts at its defining unit. *)
let rec canonical units = function
  | a :: b :: rest when Hashtbl.mem units (a ^ "__" ^ b) ->
      canonical units ((a ^ "__" ^ b) :: rest)
  | a :: b :: rest
    when String.ends_with ~suffix:"__" a && Hashtbl.mem units (a ^ b) ->
      canonical units ((a ^ b) :: rest)
  | comps -> comps

(* The values the units of [structures] read outside themselves, keyed
   [Unit.name] (or [Unit.Sub.name]). *)
let reads units structures =
  let values = Hashtbl.create 4096 in
  List.iter
    (fun (self, str) ->
      let aliases = Hashtbl.create 8 in
      let rec comps = function
        | Path.Pident id when Ident.persistent id -> Some [ Ident.name id ]
        | Path.Pident id -> Hashtbl.find_opt aliases id
        | Path.Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (comps p)
        | Path.Papply _ | Path.Pextra_ty _ -> None
      in
      let super = Tast_iterator.default_iterator in
      let expr it e =
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> (
            match Option.map (canonical units) (comps p) with
            | Some (u :: _) when u = self -> ()
            | Some c -> Hashtbl.replace values (String.concat "." c) ()
            | None -> ())
        | _ -> ());
        super.expr it e
      in
      (* [module M = Lib.M] binds an alias for the paths after it *)
      let structure_item it si =
        match si.str_desc with
        | Tstr_module
            {
              mb_id = Some id;
              mb_expr = { mod_desc = Tmod_ident (p, _); _ };
              _;
            } ->
            Option.iter
              (fun c -> Hashtbl.replace aliases id (canonical units c))
              (comps p)
        | _ -> super.structure_item it si
      in
      let it = { super with expr; structure_item } in
      it.structure it str)
    structures;
  values

(* Does a doc comment have the words "test hook", in any case, across
   line breaks and around punctuation? *)
let says_test_hook (attrs : Parsetree.attributes) =
  let rec hook = function
    | "test" :: "hook" :: _ -> true
    | _ :: rest -> hook rest
    | [] -> false
  in
  let words s =
    String.lowercase_ascii s
    |> String.map (fun c -> if c >= 'a' && c <= 'z' then c else ' ')
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
  in
  List.exists
    (fun (a : Parsetree.attribute) ->
      match (a.attr_name.txt, a.attr_payload) with
      | "ocaml.doc", PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
          match e.pexp_desc with
          | Pexp_constant (Pconst_string (s, _, _)) -> hook (words s)
          | _ -> false)
      | _ -> false)
    attrs

(* [(unit, path, loc)] for every [val] of an interface not marked a test
   hook, nested modules included: [path] is [name] or [Sub.name]. *)
let rec exported unit prefix (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd when not (says_test_hook vd.val_attributes) ->
          [ (unit, prefix ^ vd.val_name.txt, vd.val_loc) ]
      | Tsig_module
          {
            md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature s; _ };
            _;
          } ->
          exported unit (prefix ^ m ^ ".") s
      | _ -> [])
    sg.sig_items

let () =
  match Array.to_list Sys.argv with
  | _ :: checked :: readers ->
      let own = List.map load (cmt_files checked) in
      let loaded = own @ List.map load (List.concat_map cmt_files readers) in
      let units = Hashtbl.create 256 in
      List.iter (fun (m, _) -> Hashtbl.replace units m ()) loaded;
      let values =
        reads units
          (List.filter_map
             (function
               | m, Cmt_format.Implementation s -> Some (m, s) | _ -> None)
             loaded)
      in
      let interfaces =
        List.filter_map
          (function m, Cmt_format.Interface sg -> Some (m, sg) | _ -> None)
          own
      in
      let unread =
        List.concat_map (fun (m, sg) -> exported m "" sg) interfaces
        |> List.filter (fun (m, path, _) ->
               not (Hashtbl.mem values (m ^ "." ^ path)))
      in
      List.iter
        (fun (_, path, (loc : Location.t)) ->
          Printf.printf "%s:%d: val %s has no reader outside its module\n"
            loc.loc_start.pos_fname loc.loc_start.pos_lnum path)
        unread;
      if unread <> [] then (
        print_endline
          "export check: FAILED (move test-only code to test/, drop the \
           export, or mark a product seam \"test hook\")";
        exit 1);
      Printf.printf "export check: ok (%d interfaces)\n"
        (List.length interfaces)
  | _ ->
      prerr_endline "usage: check_exports.exe CHECKED [READERS...]";
      exit 2
