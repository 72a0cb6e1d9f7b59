open Cm_util
open Eventsim
open Netsim

let server host ~port ~file_bytes ?(driver = Tcp.Conn.Native) ?(config = Tcp.Conn.default_config)
    () =
  Tcp.Conn.listen host ~port ~driver ~config
    ~on_accept:(fun conn ->
      let responded = ref false in
      Tcp.Conn.on_receive conn (fun _n ->
          if not !responded then begin
            responded := true;
            Tcp.Conn.send conn file_bytes;
            Tcp.Conn.close conn
          end))
    ()

type fetch_result = { started_at : Time.t; duration : Time.span; bytes : int }

let request_bytes = 100

let fetch host ~dst ~expect_bytes ?(driver = Tcp.Conn.Native) ?(config = Tcp.Conn.default_config)
    ~on_done () =
  let engine = Host.engine host in
  let started_at = Engine.now engine in
  let conn = Tcp.Conn.connect host ~dst ~driver ~config () in
  let received = ref 0 in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      Tcp.Conn.close conn;
      on_done
        { started_at; duration = Time.diff (Engine.now engine) started_at; bytes = !received }
    end
  in
  Tcp.Conn.on_established conn (fun () -> Tcp.Conn.send conn request_bytes);
  Tcp.Conn.on_receive conn (fun n ->
      received := !received + n;
      if !received >= expect_bytes then finish ())

let sequential_fetches host ~dst ~expect_bytes ~count ~gap ?driver ?config ~on_done () =
  let engine = Host.engine host in
  let results = Array.make count None in
  let completed = ref 0 in
  let record i r =
    results.(i) <- Some r;
    incr completed;
    if !completed = count then
      on_done (Array.to_list results |> List.filter_map Fun.id)
  in
  for i = 0 to count - 1 do
    ignore
      (Engine.schedule_after engine (i * gap) (fun () ->
           fetch host ~dst ~expect_bytes ?driver ?config ~on_done:(record i) ()))
  done

let concurrent_fetches host ~dst ~expect_bytes ~count ?driver ?config ~on_done () =
  sequential_fetches host ~dst ~expect_bytes ~count ~gap:0 ?driver ?config ~on_done ()

let adaptive_server host ~cm ~port ~encodings ~target_latency ?(driver = Tcp.Conn.Native)
    ?(config = Tcp.Conn.default_config) () =
  if Array.length encodings = 0 then invalid_arg "Web.adaptive_server: need encodings";
  Tcp.Conn.listen host ~port ~driver ~config
    ~on_accept:(fun conn ->
      let responded = ref false in
      Tcp.Conn.on_receive conn (fun _n ->
          if not !responded then begin
            responded := true;
            let budget_bytes =
              match Tcp.Conn.cm_flow conn with
              | Some fid ->
                  let st = Cm.query cm fid in
                  if st.Cm.Cm_types.rate_bps <= 0. then encodings.(0)
                  else
                    int_of_float
                      (st.Cm.Cm_types.rate_bps /. 8. *. Time.to_float_s target_latency)
              | None -> encodings.(0)
            in
            let chosen = ref encodings.(0) in
            Array.iter (fun e -> if e <= budget_bytes then chosen := e) encodings;
            Tcp.Conn.send conn !chosen;
            Tcp.Conn.close conn
          end))
    ()
