package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
)

// inputDigest hashes everything a workload generates from its seed before
// it calls into the program, so two runs (or two machines) can confirm
// they measured identical inputs.
func inputDigest(o options) string {
	h := sha256.New()
	switch o.workload {
	case "sim-ships":
		b, _ := json.Marshal(shipsConfig()) // a plain config struct always marshals
		h.Write(b)
	case "frame-dense":
		warm, frames := denseInputs()
		for _, f := range append([]denseFrame{warm}, frames...) {
			fmt.Fprintf(h, "%d/%d/%d;", f.class, f.seed, len(f.frame.Truth))
			hashFloats(h, f.frame.Bounds.Min.X, f.frame.Bounds.Min.Y, f.frame.Bounds.Max.X, f.frame.Bounds.Max.Y, f.frame.GSDM)
			for _, p := range f.frame.Truth {
				hashFloats(h, p.X, p.Y)
			}
		}
	case "serve-mixed":
		pool, plan := serveInputs(o.seed, serveSessions(o))
		fmt.Fprintf(h, "%+v|%+v", pool, plan)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
