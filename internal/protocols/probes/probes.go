// Package probes holds the small helpers the instrumented protocol
// subjects share: value bucketing and hashing for bounded-cardinality
// coverage states, lenient config-value parsing, and the sorted key
// order their state encodings use.
package probes

import (
	"cmp"
	"slices"
	"strconv"
)

// SortedKeys returns m's keys in ascending order, so state encodings
// that walk a map are deterministic.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Bucket maps a non-negative quantity to a logarithmic bucket (0..~32),
// so size-like values produce bounded coverage states.
func Bucket(n int) uint64 {
	if n <= 0 {
		return 0
	}
	b := uint64(1)
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Hash returns a 64-bit FNV-1a hash of s.
func Hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashBytes returns a 64-bit FNV-1a hash of b.
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// B converts a bool to a coverage state.
func B(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Int parses a config integer leniently, returning def for missing or
// unparseable values.
func Int(cfg map[string]string, key string, def int) int {
	s, ok := cfg[key]
	if !ok || s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

// Bool parses a config boolean leniently ("true"/"yes"/"on"/"1" are
// true, "false"/"no"/"off"/"0" are false), returning def otherwise.
func Bool(cfg map[string]string, key string, def bool) bool {
	s, ok := cfg[key]
	if !ok || s == "" {
		return def
	}
	switch s {
	case "true", "yes", "on", "1":
		return true
	case "false", "no", "off", "0":
		return false
	}
	return def
}

// Str reads a config string with a default.
func Str(cfg map[string]string, key, def string) string {
	if s, ok := cfg[key]; ok && s != "" {
		return s
	}
	return def
}
