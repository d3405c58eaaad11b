let on = Flightrec.Recorder.on

(* Emits must not perform simulator operations: even a free operation is
   a yield point that changes how same-instant host code interleaves
   across CPUs (see [Machine.running]).  The host-side accessor keeps
   recorder-on runs bit-identical to recorder-off runs. *)
let emit kind =
  match Machine.running () with
  | Some (cpu, time) -> Flightrec.Recorder.emit ~cpu ~time kind
  | None -> ()
