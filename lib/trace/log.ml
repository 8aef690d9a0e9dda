type t = { mutable rev_events : Event.timed list; mutable n : int }

let create () = { rev_events = []; n = 0 }

let record t ~at event =
  t.rev_events <- { Event.at; event } :: t.rev_events;
  t.n <- t.n + 1

let events t = List.rev t.rev_events
let length t = t.n

let count t pred =
  List.fold_left
    (fun acc (e : Event.timed) -> if pred e.event then acc + 1 else acc)
    0 t.rev_events

let find_all t pred =
  List.filter (fun (e : Event.timed) -> pred e.event) (events t)

let task_attempts t ~task =
  count t (function
    | Event.Task_started { task = tk; _ } -> String.equal tk task
    | _ -> false)

(* Events hold only ints, strings and options, so structural equality
   is exact. *)
let equal a b = a.n = b.n && a.rev_events = b.rev_events

let add_lines buf events =
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf '\n';
      Event.add_timed buf e)
    events

let render_events events =
  let buf = Buffer.create 1024 in
  add_lines buf events;
  Buffer.contents buf

let render_timeline ?limit t =
  match limit with
  | Some n when t.n > n ->
      let buf = Buffer.create 1024 in
      let shown = List.filteri (fun i _ -> i < n) (events t) in
      add_lines buf shown;
      if shown <> [] then Buffer.add_char buf '\n';
      Printf.bprintf buf "... (%d more events)" (t.n - n);
      Buffer.contents buf
  | _ -> render_events (events t)
