package snapshot

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strconv"
	"sync"
)

// CanonicalDigest hashes a configuration value into a stable identity:
// a SHA-256 over a reflective walk of the structure in declared field
// order, prefixed with a caller-chosen version string. Two values digest
// equal iff every identity-bearing field is equal. The simulator uses it
// for the snapshot structural-compatibility check and the warm-checkpoint
// key (config minus measured params). The walk's paths start at "v".
//
// Funcs, maps, pointers, channels and interfaces are rejected so a new
// config field can never be hashed non-deterministically by accident.
func CanonicalDigest(prefix string, v any) ([32]byte, error) {
	return CanonicalDigestAt(prefix, "v", v)
}

// CanonicalDigestAt is CanonicalDigest with the walk's paths starting at
// root. The encoding is the prefix followed by one line per scalar,
// "path=value\n", and one "path.len=n\n" line ahead of each slice or
// array's elements; a struct field extends the path with ".Name", an
// element with "[i]". Values print as fmt's %v would (a fmt.Stringer
// via String, floats in shortest 'g' form).
func CanonicalDigestAt(prefix, root string, v any) ([32]byte, error) {
	b := canonPool.Get().(*canonBuf)
	defer canonPool.Put(b)
	b.out = append(b.out[:0], prefix...)
	b.path = append(b.path[:0], root...)
	if err := b.write(reflect.ValueOf(v)); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b.out), nil
}

// canonBuf holds the reusable scratch state of one canonical encoding:
// the output bytes and the current field path. Config hashing runs on
// every job submit, so the encoder appends into pooled buffers instead
// of allocating per field.
type canonBuf struct {
	out  []byte
	path []byte
}

var canonPool = sync.Pool{New: func() any { return new(canonBuf) }}

var stringerType = reflect.TypeOf((*fmt.Stringer)(nil)).Elem()

func (b *canonBuf) write(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		n := len(b.path)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("snapshot: unexported config field %s.%s", b.path[:n], f.Name)
			}
			b.path = append(append(b.path[:n], '.'), f.Name...)
			if err := b.write(v.Field(i)); err != nil {
				return err
			}
		}
		b.path = b.path[:n]
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
			if err := b.write(v.Index(i)); err != nil {
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
		return fmt.Errorf("snapshot: cannot canonically encode %s (kind %s)", b.path, v.Kind())
	}
}
