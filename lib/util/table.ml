type t = {
  title : string;
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title headers = { title; headers; rows = [] }

let add_row t cells =
  let n = List.length t.headers in
  let k = List.length cells in
  if k > n then invalid_arg "Table.add_row: more cells than headers";
  let padded = cells @ List.init (n - k) (fun _ -> "") in
  t.rows <- padded :: t.rows


let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line row = String.concat "  " (List.map2 pad row widths) in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()
