// Package cni implements the Container Network Interface plugin layer:
// the vanilla SR-IOV CNI (with and without the driver-rebinding
// implementation flaw of §5), the FastIOV CNI, and the IPvtap software CNI
// baseline of §6.4.
package cni

import (
	"fmt"
	"strconv"
	"time"

	"fastiov/internal/fault"
	"fastiov/internal/nic"
	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
	"fastiov/internal/vfio"
)

// Result is what a plugin hands back to the container runtime.
type Result struct {
	// VF is the allocated virtual function (nil for software CNIs).
	VF *nic.VF
	// VFIODev is the VF's VFIO registration if it is already bound to
	// vfio-pci (the fixed CNIs); nil means the runtime must rebind.
	VFIODev *vfio.Device

	// iface and ifname give Ifname: a VF netdev's name is kept as bound,
	// dummy and ipvtap names are formatted when read.
	iface  ifaceKind
	ifname string
	// sandbox is the sandbox id an ipvtap device is named after.
	sandbox int
}

// ifaceKind is the kind of interface a Result carries.
type ifaceKind uint8

const (
	ifaceNone ifaceKind = iota
	ifaceNetdev
	ifaceDummy
	ifaceIPvtap
)

// Ifname returns the Linux interface the runtime detects in the sandbox
// network namespace (a real VF netdev, a dummy, or an ipvtap device; ""
// without networking).
func (r *Result) Ifname() string {
	switch r.iface {
	case ifaceNetdev:
		return r.ifname
	case ifaceDummy:
		return "dummy-vf" + strconv.Itoa(r.VF.Index)
	case ifaceIPvtap:
		return "ipvtap" + strconv.Itoa(r.sandbox)
	}
	return ""
}

// Plugin is the CNI contract: Add configures networking for a sandbox
// before the runtime starts the microVM; Del tears it down.
type Plugin interface {
	Name() string
	Add(p *sim.Proc, sandboxID int, rec telemetry.SpanFn) (*Result, error)
	Del(p *sim.Proc, sandboxID int, res *Result) error
}

// Costs shared by the plugins.
type Costs struct {
	// VFParamSetup is the PF-driver call configuring VF parameters
	// (MAC, VLAN, spoof check).
	VFParamSetup time.Duration
	// MoveToNNS is moving an interface into the sandbox namespace.
	MoveToNNS time.Duration
	// RTNLHoldDummy is the rtnl-lock hold to create a dummy interface.
	RTNLHoldDummy time.Duration
	// RTNLHoldIpvtap is the rtnl-lock hold to create and configure an
	// ipvtap device — the kernel-network-call serialization behind the
	// software CNI's addCNI bottleneck (§6.4).
	RTNLHoldIpvtap time.Duration
	// IpvtapCgroupHold is the extra cgroup-lock work software CNIs do for
	// per-device resource isolation (§6.4's second deficiency).
	IpvtapCgroupHold time.Duration
	// IPConfig is address/route configuration on the interface.
	IPConfig time.Duration
	// AddTimeout is the plugin's own device-wait budget: an injected
	// add-device fault consumes this much time before the Add call returns
	// its timeout error (real CNIs block on netlink/device readiness until
	// their deadline fires).
	AddTimeout time.Duration
}

// DefaultCosts mirrors the calibration in DESIGN.md.
func DefaultCosts() Costs {
	return Costs{
		VFParamSetup:     2 * time.Millisecond,
		MoveToNNS:        1 * time.Millisecond,
		RTNLHoldDummy:    1 * time.Millisecond,
		RTNLHoldIpvtap:   18 * time.Millisecond,
		IpvtapCgroupHold: 12 * time.Millisecond,
		IPConfig:         2 * time.Millisecond,
		AddTimeout:       20 * time.Millisecond,
	}
}

// SRIOV is the SR-IOV CNI plugin family.
//
// Rebind=true reproduces the upstream plugin's flaw: every Add binds the VF
// to the host network driver to materialize a netdev, and the runtime must
// later unbind it and rebind vfio-pci (the dashed boxes in Fig. 4).
// Rebind=false is the fixed plugin (§5): VFs stay bound to vfio-pci from
// host boot and a dummy interface carries the configuration; this fixed
// variant is the paper's "Vanilla" baseline and also the FastIOV CNI's
// plugin side.
type SRIOV struct {
	name   string
	card   *nic.NIC
	vfio   *vfio.Driver
	rtnl   *sim.Mutex
	costs  Costs
	Rebind bool

	// Faults, when non-nil, can time out Add calls (before any VF is
	// allocated, so a retried Add starts clean) and inflate the rtnl hold.
	Faults *fault.Injector
}

// NewSRIOV builds an SR-IOV plugin. rtnl is the host's global rtnl lock.
func NewSRIOV(name string, card *nic.NIC, drv *vfio.Driver, rtnl *sim.Mutex, costs Costs, rebind bool) *SRIOV {
	return &SRIOV{name: name, card: card, vfio: drv, rtnl: rtnl, costs: costs, Rebind: rebind}
}

// Name implements Plugin.
func (s *SRIOV) Name() string { return s.name }

// Add allocates a VF and prepares its sandbox-visible interface.
func (s *SRIOV) Add(p *sim.Proc, sandboxID int, rec telemetry.SpanFn) (*Result, error) {
	if err := s.Faults.Fail(fault.SiteCNIAdd); err != nil {
		// The add blocks on device readiness until its own deadline fires,
		// then fails — before any VF is allocated, so the runtime's retry
		// does not leak one.
		p.Sleep(s.costs.AddTimeout)
		return nil, fmt.Errorf("cni %s: add sandbox %d: %w", s.name, sandboxID, err)
	}
	vf, err := s.card.AllocVF()
	if err != nil {
		return nil, err
	}
	p.Sleep(s.costs.VFParamSetup)
	res := &Result{VF: vf}
	if s.Rebind {
		// Flawed path: bind the host network driver to get a real netdev.
		vf.Dev.Bind(p, "iavf", s.vfio.BindCost())
		vf.HostIfname = fmt.Sprintf("eth-vf%d", vf.Index)
		res.iface, res.ifname = ifaceNetdev, vf.HostIfname
	} else {
		// Fixed path: the VF stays on vfio-pci (pre-bound at host boot);
		// a dummy interface carries the CNI configuration.
		vd, ok := s.vfio.Lookup(vf.Dev)
		if !ok {
			s.card.ReleaseVF(vf)
			return nil, fmt.Errorf("cni %s: VF %s not registered with VFIO", s.name, vf.Dev.Addr)
		}
		s.rtnl.Lock(p)
		p.Sleep(s.Faults.Inflate(fault.SiteCNIAdd, s.costs.RTNLHoldDummy))
		s.rtnl.Unlock(p)
		res.VFIODev = vd
		res.iface = ifaceDummy
	}
	p.Sleep(s.costs.IPConfig)
	p.Sleep(s.costs.MoveToNNS)
	return res, nil
}

// Del releases the VF (and, on the flawed path, unbinds the host driver if
// the runtime has not already done so).
func (s *SRIOV) Del(p *sim.Proc, sandboxID int, res *Result) error {
	if res.VF == nil {
		return fmt.Errorf("cni %s: no VF in result", s.name)
	}
	if res.VF.Dev.Driver() == "iavf" {
		res.VF.Dev.Unbind(p, s.vfio.UnbindCost())
	}
	s.card.ReleaseVF(res.VF)
	return nil
}

// IPvtap is the basic software CNI baseline (§6.4): it creates an ipvtap
// virtual device under the rtnl lock and performs per-device cgroup work,
// both of which serialize host-wide.
type IPvtap struct {
	rtnl       *sim.Mutex
	cgroupLock *sim.Mutex
	costs      Costs

	// Faults mirrors SRIOV.Faults for the software-CNI path.
	Faults *fault.Injector
}

// NewIPvtap builds the plugin; rtnl and cgroupLock are host-global.
func NewIPvtap(rtnl, cgroupLock *sim.Mutex, costs Costs) *IPvtap {
	return &IPvtap{rtnl: rtnl, cgroupLock: cgroupLock, costs: costs}
}

// Name implements Plugin.
func (t *IPvtap) Name() string { return "ipvtap" }

// Add creates and configures the ipvtap device.
func (t *IPvtap) Add(p *sim.Proc, sandboxID int, rec telemetry.SpanFn) (*Result, error) {
	if err := t.Faults.Fail(fault.SiteCNIAdd); err != nil {
		p.Sleep(t.costs.AddTimeout)
		return nil, fmt.Errorf("cni ipvtap: add sandbox %d: %w", sandboxID, err)
	}
	start := p.Now()
	t.rtnl.Lock(p)
	p.Sleep(t.Faults.Inflate(fault.SiteCNIAdd, t.costs.RTNLHoldIpvtap))
	t.rtnl.Unlock(p)
	p.Sleep(t.costs.IPConfig)
	p.Sleep(t.costs.MoveToNNS)
	if rec != nil {
		rec(telemetry.StageAddCNI, start, p.Now())
	}
	// Per-device resource isolation: extra cgroup-lock work.
	start = p.Now()
	t.cgroupLock.Lock(p)
	p.Sleep(t.costs.IpvtapCgroupHold)
	t.cgroupLock.Unlock(p)
	if rec != nil {
		rec(telemetry.StageCgroup, start, p.Now())
	}
	return &Result{iface: ifaceIPvtap, sandbox: sandboxID}, nil
}

// Del removes the device.
func (t *IPvtap) Del(p *sim.Proc, sandboxID int, res *Result) error {
	t.rtnl.Lock(p)
	p.Sleep(t.costs.RTNLHoldDummy)
	t.rtnl.Unlock(p)
	return nil
}

// NoNetwork is the no-network lower bound (§6.1 baselines).
type NoNetwork struct{}

// Name implements Plugin.
func (NoNetwork) Name() string { return "no-network" }

// Add does nothing.
func (NoNetwork) Add(p *sim.Proc, sandboxID int, rec telemetry.SpanFn) (*Result, error) {
	return &Result{}, nil
}

// Del does nothing.
func (NoNetwork) Del(p *sim.Proc, sandboxID int, res *Result) error { return nil }
