package main

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// checksum identifies a multiset of keys well enough to catch a lost,
// duplicated or altered key: count, wrapping sum, and xor.
type checksum struct {
	n        int
	sum, xor uint64
}

func sumOf(keys []int64) checksum {
	c := checksum{n: len(keys)}
	for _, k := range keys {
		c.sum += uint64(k)
		c.xor ^= uint64(k)
	}
	return c
}

// checkSorted reports whether out is ascending and a permutation of the
// input with checksum want.
func checkSorted(out []int64, want checksum) error {
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			return fmt.Errorf("output not sorted at %d: %d after %d", i, out[i], out[i-1])
		}
	}
	if got := sumOf(out); got != want {
		return fmt.Errorf("output is not a permutation of the input: got %+v, want %+v", got, want)
	}
	return nil
}

// checkEqual reports whether out equals want exactly.
func checkEqual(out, want []int64) error {
	if len(out) != len(want) {
		return fmt.Errorf("got %d keys, want %d", len(out), len(want))
	}
	if i := firstDiff(out, want); i >= 0 {
		return fmt.Errorf("key %d is %d, want %d", i, out[i], want[i])
	}
	return nil
}

func firstDiff(a, b []int64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// topKWant is what a top-K query must return: the K smallest keys in
// ascending order, read off a sorted copy of the input.
func topKWant(keys []int64, k int) []int64 {
	s := slices.Clone(keys)
	slices.Sort(s)
	return s[:k:k]
}

// ingestWant is what an ingest must return: the sorted union of the
// dataset and the batch.
func ingestWant(dataset, batch []int64) []int64 {
	s := append(slices.Clone(dataset), batch...)
	slices.Sort(s)
	return s
}

// payloadBytes is the fixed record payload width of sort-records.
const payloadBytes = 64

// payloadFor derives record i's payload from its input index: the index
// itself in the first eight bytes, then a mix of it, so that pairing and
// the stable order of equal keys are checkable from the output alone.
func payloadFor(i int) []byte {
	p := make([]byte, payloadBytes)
	binary.LittleEndian.PutUint64(p, uint64(i))
	x := uint64(i)
	for off := 8; off < payloadBytes; off += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(p[off:], x)
	}
	return p
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// checkRecords verifies a records sort: keys ascending, every payload
// intact and paired with its own input key, every input index present
// once, and equal keys in input order (stability).
func checkRecords(in, keys []int64, payloads [][]byte) error {
	if len(keys) != len(in) || len(payloads) != len(in) {
		return fmt.Errorf("got %d keys and %d payloads for %d records", len(keys), len(payloads), len(in))
	}
	seen := make([]bool, len(in))
	prev := -1
	for j, p := range payloads {
		if len(p) != payloadBytes {
			return fmt.Errorf("record %d: payload of %d bytes, want %d", j, len(p), payloadBytes)
		}
		idx := int(binary.LittleEndian.Uint64(p))
		if idx < 0 || idx >= len(in) || seen[idx] {
			return fmt.Errorf("record %d: payload index %d missing, repeated or out of range", j, idx)
		}
		seen[idx] = true
		if string(p) != string(payloadFor(idx)) {
			return fmt.Errorf("record %d: payload of input %d altered", j, idx)
		}
		if keys[j] != in[idx] {
			return fmt.Errorf("record %d: key %d paired with payload of input %d (key %d)", j, keys[j], idx, in[idx])
		}
		if j > 0 {
			switch {
			case keys[j] < keys[j-1]:
				return fmt.Errorf("keys not sorted at %d", j)
			case keys[j] == keys[j-1] && idx < prev:
				return fmt.Errorf("equal keys at %d out of input order (unstable)", j)
			}
		}
		prev = idx
	}
	return nil
}
