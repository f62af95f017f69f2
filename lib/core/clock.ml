external now : unit -> (float[@unboxed])
  = "legodb_clock_monotonic_byte" "legodb_clock_monotonic"
  [@@noalloc]
