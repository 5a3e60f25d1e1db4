(* CRC-32 (IEEE 802.3, the zlib polynomial), table-driven, one byte at a
   time. Fast enough for 4 KiB pages on the simulated miss path; a real file
   backend would swap in a hardware-accelerated implementation behind the
   same signature. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc b (* byte *) = table.((crc lxor b) land 0xff) lxor (crc lsr 8)

let bytes_sub b off len =
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc := update !crc (Char.code (Bytes.unsafe_get b i))
  done;
  !crc lxor 0xFFFFFFFF

let bytes b = bytes_sub b 0 (Bytes.length b)

let string_sub s off len = bytes_sub (Bytes.unsafe_of_string s) off len

let string s = string_sub s 0 (String.length s)
