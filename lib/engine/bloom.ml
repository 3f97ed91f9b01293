(* Blocked Bloom filter over precomputed value hashes. See bloom.mli.

   Each key touches exactly one machine word (cache-friendly "blocked"
   layout): a multiplicative mix of the key hash picks the word, and three
   disjoint slices of the mixed hash pick three bits inside it. OCaml ints
   give 62 usable bits per word (the top bit of a 63-bit int is avoided so
   bit arithmetic never overflows into the sign). *)

type t = { words : int array; mask : int }

let bits_per_word = 62

(* Fibonacci-hashing multiplier (2^63 / φ, truncated to an OCaml int);
   wrap-around multiplication is the intended mixing. *)
let mix h = h * 0x2E1E9F979B1E4B63

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

(* One word per ~8 expected keys keeps the per-word load around 3 set bits
   out of 62 for a ~0.01% false-positive rate at 1 byte/key. *)
let create expected =
  let nwords = pow2 (max 1 ((expected + 7) / 8)) 1 in
  { words = Array.make nwords 0; mask = nwords - 1 }

let slots t h =
  let m = mix h in
  let w = (m lsr 6) land t.mask in
  let b1 = (m lsr 20) land 63 mod bits_per_word in
  let b2 = (m lsr 32) land 63 mod bits_per_word in
  let b3 = (m lsr 44) land 63 mod bits_per_word in
  (w, (1 lsl b1) lor (1 lsl b2) lor (1 lsl b3))

let add t h =
  let w, bits = slots t h in
  t.words.(w) <- t.words.(w) lor bits

let mem t h =
  let w, bits = slots t h in
  t.words.(w) land bits = bits

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
  go 0 x

let fill_ratio t =
  let set = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words in
  float_of_int set /. float_of_int (bits_per_word * Array.length t.words)
