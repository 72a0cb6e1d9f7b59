(** Hash tables keyed by ints: integer equality and a multiply-shift
    hash, so a probe makes no runtime call ([Hashtbl]'s makes a
    [caml_hash] and a polymorphic compare).  Buckets, and so iteration
    order, differ from a generic table's; where that order reaches output
    use [Hashtbl.Make (Int)], whose [Int.hash] is [Hashtbl.hash]. *)

include Hashtbl.S with type key = int
