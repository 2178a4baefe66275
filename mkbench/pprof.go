package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerPrefixes maps each share metric to the function-name prefixes whose
// presence anywhere on a CPU sample's stack attributes the sample to that
// layer. Shares are inclusive: a sample can count toward several layers (a
// timeline built inside a bsp run counts for both).
var layerPrefixes = map[string][]string{
	"share.noise_timeline": {"mkos/internal/noise.(*Profile).Timeline"},
	"share.mem_buddy":      {"mkos/internal/mem.(*Buddy)."},
	"share.ihk":            {"mkos/internal/ihk."},
	"share.telemetry":      {"mkos/internal/telemetry."},
	"share.rng_seed":       {"mkos/internal/sim.NewRand", "math/rand.(*rngSource).Seed"},
	"share.telemetry_rng": {"mkos/internal/telemetry.", "mkos/internal/sim.NewRand",
		"math/rand.(*rngSource).Seed"},
	"share.sim_engine": {"mkos/internal/sim.(*Engine)."},
	"share.bsp":        {"mkos/internal/bsp."},
	"share.shard":      {"mkos/internal/shard."},
	"share.json":       {"encoding/json."},
	"share.gc":         {"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.mallocgc"},
}

// dispatchFrames only hand control to other code: telemetry.RunWith wraps
// every sweep trial and shard, and the engine and shard loops run every
// event. Counting them would put nearly all samples in those layers, so
// they are skipped when matching.
var dispatchFrames = []string{
	"mkos/internal/telemetry.RunWith",
	"mkos/internal/sim.(*Engine).Run",
	"mkos/internal/sim.(*Engine).Step",
	"mkos/internal/shard.(*runner).shardLoop",
	"mkos/internal/shard.safely",
	"mkos/internal/shard.Run",
}

// layerShares attributes the CPU samples of a runtime/pprof CPU profile to
// the layers above and returns each layer's share of all samples.
func layerShares(profile []byte) (map[string]float64, error) {
	stacks, weights, err := parseCPUProfile(profile)
	if err != nil {
		return nil, fmt.Errorf("reading the CPU profile: %w", err)
	}
	out := make(map[string]float64, len(layerPrefixes))
	var total int64
	for _, w := range weights {
		total += w
	}
	for metric, prefixes := range layerPrefixes {
		var hit int64
		for i, stack := range stacks {
			if onStack(stack, prefixes) {
				hit += weights[i]
			}
		}
		if total > 0 {
			out[metric] = float64(hit) / float64(total)
		} else {
			out[metric] = 0
		}
	}
	return out, nil
}

func onStack(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		if hasAnyPrefix(fn, dispatchFrames) {
			continue
		}
		if hasAnyPrefix(fn, prefixes) {
			return true
		}
	}
	return false
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// parseCPUProfile decodes the gzipped profile.proto runtime/pprof writes into
// one function-name stack per sample and the sample's count (its first
// value). Only the fields needed for that are read: Profile.sample (2),
// .location (4), .function (5), .string_table (6); Sample.location_id (1)
// and .value (2); Location.id (1) and .line (4); Line.function_id (1);
// Function.id (1) and .name (2).
func parseCPUProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]int64{}
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals := appendVarints(nil, v, b)
					if first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx >= 0 && idx < int64(len(strs)) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		weights[i] = s.count
	}
	return stacks, weights, nil
}

// fields walks the top-level fields of one protobuf message. For varint
// fields fn gets the value; for length-delimited fields, the bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errMalformed
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errMalformed
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errMalformed
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errMalformed
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errMalformed
			}
			msg = msg[4:]
		default:
			return errMalformed
		}
	}
	return nil
}

var errMalformed = errors.New("malformed protobuf")

// appendVarints appends a repeated integer field's values: a single value
// (v) when unpacked, every varint in b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
