package lint

// stdStubs holds miniature source stubs for the standard-library packages
// whose *member identity* matters to a rule. The engine never type-checks
// the real standard library (that would drag go/build, GOROOT source, and
// cgo handling into a tool that must stay dependency-free and fast);
// instead, imports of these packages resolve to the stubs below, which is
// exactly enough for:
//
//   - detrand/simclock/noprint: resolving the qualifier of rand.X / time.X /
//     fmt.X to the right package,
//   - lockheld/goroleak: resolving sync.Mutex, RWMutex, WaitGroup and Cond
//     and their Lock/Unlock/Wait methods,
//   - floateq: float-typed results of common stdlib calls (time.Duration's
//     Seconds, rand.Float64, math.Abs, ...) so comparisons involving them
//     still get a concrete float type.
//
// Every other import resolves to an empty placeholder package; the resulting
// "undeclared name" type errors are swallowed, and rules only ever consult
// information that survives such partial checking.
var stdStubs = map[string]string{
	"sync": `package sync

type Locker interface {
	Lock()
	Unlock()
}

type Mutex struct{}

func (m *Mutex) Lock()         {}
func (m *Mutex) Unlock()       {}
func (m *Mutex) TryLock() bool { return false }

type RWMutex struct{}

func (rw *RWMutex) Lock()           {}
func (rw *RWMutex) Unlock()         {}
func (rw *RWMutex) RLock()          {}
func (rw *RWMutex) RUnlock()        {}
func (rw *RWMutex) TryLock() bool   { return false }
func (rw *RWMutex) TryRLock() bool  { return false }
func (rw *RWMutex) RLocker() Locker { return nil }

type WaitGroup struct{}

func (wg *WaitGroup) Add(delta int) {}
func (wg *WaitGroup) Done()         {}
func (wg *WaitGroup) Wait()         {}

type Once struct{}

func (o *Once) Do(f func()) {}

type Pool struct{ New func() any }

func (p *Pool) Get() any  { return nil }
func (p *Pool) Put(x any) {}

type Map struct{}

func (m *Map) Load(key any) (any, bool)                  { return nil, false }
func (m *Map) Store(key, value any)                      {}
func (m *Map) LoadOrStore(key, value any) (any, bool)    { return nil, false }
func (m *Map) LoadAndDelete(key any) (any, bool)         { return nil, false }
func (m *Map) Delete(key any)                            {}
func (m *Map) Range(f func(key, value any) bool)         {}
func (m *Map) CompareAndSwap(key, old, new any) bool     { return false }
func (m *Map) CompareAndDelete(key, old any) bool        { return false }
func (m *Map) Swap(key, value any) (previous any, loaded bool) { return nil, false }

type Cond struct {
	L Locker
}

func NewCond(l Locker) *Cond { return &Cond{L: l} }
func (c *Cond) Wait()        {}
func (c *Cond) Signal()      {}
func (c *Cond) Broadcast()   {}

func OnceFunc(f func()) func() { return f }
`,

	"time": `package time

type Duration int64

const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

func (d Duration) Seconds() float64      { return 0 }
func (d Duration) Minutes() float64      { return 0 }
func (d Duration) Hours() float64        { return 0 }
func (d Duration) Nanoseconds() int64    { return 0 }
func (d Duration) Microseconds() int64   { return 0 }
func (d Duration) Milliseconds() int64   { return 0 }
func (d Duration) String() string        { return "" }
func (d Duration) Round(m Duration) Duration    { return 0 }
func (d Duration) Truncate(m Duration) Duration { return 0 }

type Time struct{ wall uint64 }

func (t Time) Sub(u Time) Duration   { return 0 }
func (t Time) Add(d Duration) Time   { return t }
func (t Time) Before(u Time) bool    { return false }
func (t Time) After(u Time) bool     { return false }
func (t Time) Equal(u Time) bool     { return false }
func (t Time) IsZero() bool          { return false }
func (t Time) Unix() int64           { return 0 }
func (t Time) UnixMilli() int64      { return 0 }
func (t Time) UnixNano() int64       { return 0 }
func (t Time) Format(layout string) string { return "" }
func (t Time) String() string        { return "" }

func Now() Time                 { return Time{} }
func Since(t Time) Duration     { return 0 }
func Until(t Time) Duration     { return 0 }
func Sleep(d Duration)          {}
func After(d Duration) <-chan Time { return nil }
func Tick(d Duration) <-chan Time  { return nil }
func Unix(sec int64, nsec int64) Time { return Time{} }
func ParseDuration(s string) (Duration, error) { return 0, nil }

type Timer struct{ C <-chan Time }

func NewTimer(d Duration) *Timer            { return nil }
func AfterFunc(d Duration, f func()) *Timer { return nil }
func (t *Timer) Stop() bool                 { return false }
func (t *Timer) Reset(d Duration) bool      { return false }

type Ticker struct{ C <-chan Time }

func NewTicker(d Duration) *Ticker { return nil }
func (t *Ticker) Stop()            {}
func (t *Ticker) Reset(d Duration) {}
`,

	"math/rand": `package rand

type Source interface {
	Int63() int64
	Seed(seed int64)
}

type Source64 interface {
	Source
	Uint64() uint64
}

func NewSource(seed int64) Source { return nil }

type Rand struct{ src Source }

func New(src Source) *Rand { return &Rand{src: src} }

func (r *Rand) Seed(seed int64)                     {}
func (r *Rand) Int63() int64                        { return 0 }
func (r *Rand) Uint32() uint32                      { return 0 }
func (r *Rand) Uint64() uint64                      { return 0 }
func (r *Rand) Int31() int32                        { return 0 }
func (r *Rand) Int() int                            { return 0 }
func (r *Rand) Int63n(n int64) int64                { return 0 }
func (r *Rand) Int31n(n int32) int32                { return 0 }
func (r *Rand) Intn(n int) int                      { return 0 }
func (r *Rand) Float64() float64                    { return 0 }
func (r *Rand) Float32() float32                    { return 0 }
func (r *Rand) ExpFloat64() float64                 { return 0 }
func (r *Rand) NormFloat64() float64                { return 0 }
func (r *Rand) Perm(n int) []int                    { return nil }
func (r *Rand) Shuffle(n int, swap func(i, j int))  {}
func (r *Rand) Read(p []byte) (n int, err error)    { return 0, nil }

type Zipf struct{ r *Rand }

func NewZipf(r *Rand, s float64, v float64, imax uint64) *Zipf { return nil }
func (z *Zipf) Uint64() uint64                                 { return 0 }

func Seed(seed int64)                     {}
func Int63() int64                        { return 0 }
func Uint32() uint32                      { return 0 }
func Uint64() uint64                      { return 0 }
func Int31() int32                        { return 0 }
func Int() int                            { return 0 }
func Int63n(n int64) int64                { return 0 }
func Int31n(n int32) int32                { return 0 }
func Intn(n int) int                      { return 0 }
func Float64() float64                    { return 0 }
func Float32() float32                    { return 0 }
func ExpFloat64() float64                 { return 0 }
func NormFloat64() float64                { return 0 }
func Perm(n int) []int                    { return nil }
func Shuffle(n int, swap func(i, j int))  {}
func Read(p []byte) (n int, err error)    { return 0, nil }
`,

	"context": `package context

import "time"

type CancelFunc func()

type Context interface {
	Deadline() (deadline time.Time, ok bool)
	Done() <-chan struct{}
	Err() error
	Value(key any) any
}

func Background() Context                                              { return nil }
func TODO() Context                                                    { return nil }
func WithCancel(parent Context) (Context, CancelFunc)                  { return nil, nil }
func WithTimeout(parent Context, d time.Duration) (Context, CancelFunc) { return nil, nil }
func WithDeadline(parent Context, t time.Time) (Context, CancelFunc)   { return nil, nil }
func WithValue(parent Context, key, val any) Context                   { return nil }
`,

	"math": `package math

const (
	MaxFloat64             = 0x1p1023 * (1 + (1 - 0x1p-52))
	SmallestNonzeroFloat64 = 0x1p-1022 * 0x1p-52
	MaxInt64               = 1<<63 - 1
	MaxInt                 = 1<<63 - 1
	Pi                     = 3.14159265358979323846264338327950288419716939937510582097494459
)

func Abs(x float64) float64               { return 0 }
func Max(x, y float64) float64            { return 0 }
func Min(x, y float64) float64            { return 0 }
func Mod(x, y float64) float64            { return 0 }
func Sqrt(x float64) float64              { return 0 }
func Pow(x, y float64) float64            { return 0 }
func Exp(x float64) float64               { return 0 }
func Log(x float64) float64               { return 0 }
func Log2(x float64) float64              { return 0 }
func Floor(x float64) float64             { return 0 }
func Ceil(x float64) float64              { return 0 }
func Trunc(x float64) float64             { return 0 }
func Round(x float64) float64             { return 0 }
func Inf(sign int) float64                { return 0 }
func NaN() float64                        { return 0 }
func IsNaN(f float64) bool                { return false }
func IsInf(f float64, sign int) bool      { return false }
func Float64bits(f float64) uint64        { return 0 }
func Float64frombits(b uint64) float64    { return 0 }
`,
}
