package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"

	"bump/internal/sim"
)

// ErrNotHashable marks configurations whose identity cannot be captured
// by value — today, configs carrying a Streams hook (the stream is code,
// not data, so two hooks can never be proven equivalent).
var ErrNotHashable = errors.New("service: config with custom Streams is not hashable")

// hashVersion is bumped whenever the canonical encoding (or the meaning
// of an encoded field) changes, so stale cached results can never be
// returned across incompatible versions.
// v2: sim.Config gained the Scenario field (walked canonically like the
// rest of the structure).
// v3: sim.Config gained ForkAt and ForkCycles (checkpoint-tree sweeps).
// v4: sim.Config gained Workers; it is zeroed before the walk (a
// resource knob must never split job identity — a Workers=8 submit
// coalesces with, and is served from the cache of, a sequential one).
// v5: sim.Config lost Workers (the sharded engine is gone), which drops
// its always-zero line from the encoding.
const hashVersion = "bump-config-v5"

// canonBuf holds the reusable scratch state of one canonical encoding:
// the output bytes and the current field path. Hashing runs on every
// submit, so the encoder appends into pooled buffers instead of
// allocating per field.
type canonBuf struct {
	out  []byte
	path []byte
}

var canonPool = sync.Pool{New: func() any { return new(canonBuf) }}

var stringerType = reflect.TypeOf((*fmt.Stringer)(nil)).Elem()

// Hash returns the canonical content hash of a resolved configuration:
// two configs hash equal iff every identity-bearing field is equal. The
// encoding walks the config structure reflectively in declared field
// order, so adding a field to any config struct automatically changes
// the hash space (no silently-unhashed knobs).
func Hash(cfg sim.Config) (string, error) {
	if cfg.Streams != nil {
		return "", ErrNotHashable
	}
	b := canonPool.Get().(*canonBuf)
	defer canonPool.Put(b)
	b.out = append(b.out[:0], hashVersion...)
	b.path = append(b.path[:0], "cfg"...)
	if err := b.writeCanonical(reflect.ValueOf(cfg)); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.out)
	return hex.EncodeToString(sum[:]), nil
}

// HashSpec resolves and hashes a job spec in one step.
func HashSpec(spec JobSpec) (string, error) {
	cfg, err := spec.Config()
	if err != nil {
		return "", err
	}
	return Hash(cfg)
}

// writeCanonical appends a deterministic byte encoding of v: structs
// recurse in declared field order, scalars print as "path=value\n"
// (value formatted exactly as fmt's %v would — the encoding predates
// this allocation-free encoder and must stay byte-identical to it).
// Func-typed fields must be nil (checked by Hash for Streams; any other
// non-nil func is an error so it can never be silently ignored).
func (b *canonBuf) writeCanonical(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		n := len(b.path)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("service: unexported config field %s.%s", b.path[:n], f.Name)
			}
			b.path = append(append(b.path[:n], '.'), f.Name...)
			if err := b.writeCanonical(v.Field(i)); err != nil {
				return err
			}
		}
		b.path = b.path[:n]
		return nil
	case reflect.Func:
		if !v.IsNil() {
			return fmt.Errorf("service: config field %s holds code and cannot be hashed", b.path)
		}
		return nil
	case reflect.Slice, reflect.Array:
		n := len(b.path)
		b.out = append(b.out, b.path...)
		b.out = append(b.out, ".len="...)
		b.out = strconv.AppendInt(b.out, int64(v.Len()), 10)
		b.out = append(b.out, '\n')
		for i := 0; i < v.Len(); i++ {
			b.path = append(b.path[:n], '[')
			b.path = strconv.AppendInt(b.path, int64(i), 10)
			b.path = append(b.path, ']')
			if err := b.writeCanonical(v.Index(i)); err != nil {
				return err
			}
		}
		b.path = b.path[:n]
		return nil
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		b.out = append(b.out, b.path...)
		b.out = append(b.out, '=')
		if v.Type().Implements(stringerType) {
			// %v prints via Stringer (e.g. sim.Mechanism renders as its
			// name, not its ordinal); keep that rendering.
			b.out = append(b.out, v.Interface().(fmt.Stringer).String()...)
			b.out = append(b.out, '\n')
			return nil
		}
		switch v.Kind() {
		case reflect.Bool:
			b.out = strconv.AppendBool(b.out, v.Bool())
		case reflect.String:
			b.out = append(b.out, v.String()...)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b.out = strconv.AppendInt(b.out, v.Int(), 10)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			b.out = strconv.AppendUint(b.out, v.Uint(), 10)
		case reflect.Float32:
			b.out = strconv.AppendFloat(b.out, v.Float(), 'g', -1, 32)
		case reflect.Float64:
			b.out = strconv.AppendFloat(b.out, v.Float(), 'g', -1, 64)
		}
		b.out = append(b.out, '\n')
		return nil
	default:
		// Maps, pointers, channels, interfaces: no config struct uses
		// them today; fail loudly if one appears rather than hash it
		// non-deterministically.
		return fmt.Errorf("service: cannot canonically encode %s (kind %s)", b.path, v.Kind())
	}
}
