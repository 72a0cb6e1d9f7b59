include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* the multiply spreads every key bit upward and the shift folds the
     high bits down to the ones a table masks to a bucket, so packed keys
     that differ only in high bits still spread *)
  let hash k =
    let h = k * 0x9E3779B1 in
    h lxor (h lsr 16)
end)
