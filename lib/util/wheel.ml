(** Occupancy counters of the engine's event queue
    ({!Eventsim.Engine.queue_stats}); the queue itself lives in the
    engine's unit. *)
type stats = {
  overflow_inserts : int;  (** inserts routed beyond the wheel horizon *)
  overflow_migrations : int;  (** overflow entries later moved into the current-slot heap *)
  hw_size : int;  (** high-water of total queued entries *)
  hw_cur : int;  (** high-water of the current-slot heap (one slot's occupancy) *)
  size_now : int;  (** entries queued right now *)
}
