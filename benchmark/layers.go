package main

import "strings"

// layerTable maps memsim packages to the layer names the per-layer
// metrics use. Every package under internal/ has an entry (the
// self-test enforces it), so a new package must be placed on purpose;
// anything else, including the standard library, folds into "other".
// Longer prefixes win, so subpackages inherit their parent's layer
// unless listed themselves; the root package matches only itself.
var layerTable = map[string]string{
	"memsim":                      "core", // root facade
	"memsim/internal/addrmap":     "addrmap",
	"memsim/internal/cache":       "cache",
	"memsim/internal/channel":     "channel",
	"memsim/internal/chaos":       "other", // crash drills; never on a benchmark path
	"memsim/internal/cluster":     "cluster",
	"memsim/internal/core":        "core",
	"memsim/internal/cpu":         "cpu",
	"memsim/internal/dram":        "dram",
	"memsim/internal/experiments": "experiments",
	"memsim/internal/harden":      "core",  // watchdog and invariant checks run inside core.System
	"memsim/internal/lint":        "other", // static checker; never on a benchmark path
	"memsim/internal/memctrl":     "memctrl",
	"memsim/internal/obs":         "core", // instruments hang off core.System
	"memsim/internal/policy":      "policy",
	"memsim/internal/prefetch":    "prefetch",
	"memsim/internal/server":      "server",
	"memsim/internal/sim":         "sim",
	"memsim/internal/stats":       "core",
	"memsim/internal/trace":       "workload",
	"memsim/internal/vfs":         "vfs",
	"memsim/internal/workload":    "workload",
}

// layers lists every layer a host-time or allocation metric is
// reported for, in report order.
var layers = []string{
	"cpu", "cache", "memctrl", "channel", "dram", "addrmap", "prefetch", "policy",
	"sim", "workload", "core", "cluster", "server", "experiments", "vfs", "other",
}

// layerOfPackage returns the layer of an import path, and whether the
// table names it explicitly.
func layerOfPackage(pkg string) (string, bool) {
	best, layer := -1, "other"
	for prefix, l := range layerTable {
		sub := prefix != "memsim" && strings.HasPrefix(pkg, prefix+"/")
		if (pkg == prefix || sub) && len(prefix) > best {
			best, layer = len(prefix), l
		}
	}
	return layer, best >= 0
}

// packageOf extracts the import path from a symbolized function name
// such as "memsim/internal/cache.(*Cache).Lookup" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Runtime functions that identify allocation and garbage-collection
// work when they appear in the runtime-only tail of a stack.
var (
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.newarray", "runtime.convT", "runtime.rawstring",
		"runtime.rawbyteslice", "runtime.mapassign", "runtime.makechan", "runtime.concatstring",
		"runtime.slicebytetostring", "runtime.stringtoslicebyte",
	}
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.markroot",
		"runtime.scanobject", "runtime.bgsweep", "runtime.sweepone", "runtime.gcStart",
		"runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.greyobject",
		"runtime.scanstack", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
	}
)

// classifyStack assigns one CPU sample, given its stack from the leaf
// outwards, to a host-time bucket: the layer of the leaf frame's
// package, or for runtime leaves "runtime.malloc", "runtime.gc" or
// "runtime.other" depending on what the runtime was doing.
func classifyStack(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if !isRuntime(packageOf(stack[0])) {
		layer, _ := layerOfPackage(packageOf(stack[0]))
		return layer
	}
	for _, fn := range stack {
		if !isRuntime(packageOf(fn)) {
			break
		}
		for _, f := range gcFrames {
			if strings.HasPrefix(fn, f) {
				return "runtime.gc"
			}
		}
		for _, f := range mallocFrames {
			if strings.HasPrefix(fn, f) {
				return "runtime.malloc"
			}
		}
	}
	return "runtime.other"
}

// allocLayer attributes an allocation to the first frame outside the
// runtime, walking from the leaf.
func allocLayer(stack []string) string {
	for _, fn := range stack {
		if pkg := packageOf(fn); !isRuntime(pkg) {
			layer, _ := layerOfPackage(pkg)
			return layer
		}
	}
	return "other"
}

// isRuntime reports whether a package is part of the Go runtime
// proper, including its internal helpers (maps, atomics, memmove).
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") ||
		strings.HasPrefix(pkg, "runtime/internal/") || pkg == "internal/bytealg"
}
