package bench

import "repro/internal/soc"

// The synthetic Philips-like SOCs below are authored, not copied: the
// ITC'02 industrial benchmark files are not available offline. Core-type
// mix, module counts, and hierarchy mirror the published summaries; exact
// per-core numbers are invented. The pattern counts were calibrated once
// to the paper's areas and are kept here as literal data: every core but
// the engineered ones was scaled until the SOC's minimum rectangle area
// Σ_i min_w w·T_i(w) (lb.Bound.MinArea) came within one pattern step of its
// Area* constant, and the input count of the core named "trim", whose
// area at one pattern is Inputs + 2·400 + 1, closed the rest. Engineered
// cores carry their paper roles in the name. TestCalibrationExact and
// lb's TestPaperLowerBounds pin the result.

// P22810Like returns the 28-core stand-in for Philips p22810: one
// hierarchical controller with two children, three large scan cores, six
// mid-size peripherals, a tail of small logic and combinational glue
// cores, and two BIST memories sharing engine 0 (plus one on engine 1).
func P22810Like() *soc.SOC {
	s := &soc.SOC{
		Name: "p22810like",
		Cores: []*soc.Core{
			core(1, "sysCtrl", 0, 28, 56, 10, repeat(6, 90), 155),
			core(2, "usbIf", 1, 50, 40, 0, repeat(8, 220), 205),
			core(3, "uartQuad", 1, 34, 30, 0, repeat(4, 60), 107),
			core(4, "gpio", 0, 61, 52, 0, nil, 186),
			core(5, "mpegDec", 0, 80, 64, 0, chains(16, 170, 13, 168), 244),
			core(6, "dmaEng", 0, 40, 36, 0, repeat(6, 110), 137),
			core(7, "timerBlk", 0, 22, 18, 0, repeat(2, 48), 78),
			core(8, "enetMac", 0, 77, 58, 0, repeat(12, 130), 234),
			core(9, "spiFlashIf", 0, 26, 22, 0, repeat(2, 70), 93),
			bistCore(10, "sram32k", 0, 20, 16, repeat(4, 200), 293, 0),
			core(11, "dspCore", 0, 60, 40, 0, repeat(32, 150), 225),
			core(12, "i2cDual", 0, 18, 14, 0, repeat(2, 40), 68),
			core(13, "serdes", 0, 30, 28, 0, repeat(10, 160), 244),
			core(14, "crcUnit", 0, 48, 33, 0, nil, 254),
			core(15, "pwmBlk", 0, 20, 16, 0, repeat(2, 36), 63),
			bistCore(16, "sram16k", 0, 16, 12, repeat(4, 180), 274, 0),
			core(17, "pciBridge", 0, 66, 50, 0, repeat(14, 120), 225),
			core(18, "intCtrl", 0, 35, 24, 0, repeat(3, 55), 98),
			core(19, "aluComb", 0, 88, 44, 0, nil, 322),
			core(20, "keypadIf", 0, 24, 20, 0, repeat(2, 44), 73),
			core(21, "fifoFabric", 0, 44, 52, 0, repeat(24, 180), 264),
			core(22, "adcCtrl", 0, 28, 22, 0, repeat(3, 66), 103),
			bistCore(23, "dpram8k", 0, 14, 10, repeat(2, 160), 234, 1),
			core(24, "videoScaler", 0, 42, 38, 0, repeat(16, 100), 254),
			core(25, "muxComb", 0, 72, 36, 0, nil, 156),
			core(26, "watchdog", 0, 16, 12, 0, repeat(1, 40), 54),
			core(27, "audioCodec", 0, 36, 32, 0, repeat(6, 260), 244),
			core(28, "trim", 0, 600, 0, 0, []int{400}, 1),
		},
	}
	mustValidate(s)
	return s
}

// P34392Like returns the 19-core stand-in for Philips p34392. Core 18 is the
// engineered bottleneck: one 1459-bit scan chain plus 45 chains of 260
// bits and 372 patterns gives T(10) = 1460·372 + 1459 = 544579 cycles at
// its highest Pareto width 10, with T(9) = 582252 (6.9% above) so the
// preferred-width heuristic picks 9 wires for α ≥ 7 and only the δ ≥ 1
// promotion recovers the SOC's minimum testing time (the paper's §6
// narrative).
func P34392Like() *soc.SOC {
	s := &soc.SOC{
		Name: "p34392like",
		Cores: []*soc.Core{
			core(1, "busMatrix", 0, 40, 44, 12, repeat(8, 80), 166),
			core(2, "cpuCluster", 0, 70, 56, 0, repeat(40, 180), 333),
			core(3, "mmu", 2, 30, 26, 0, repeat(6, 90), 144),
			core(4, "fpu", 2, 36, 32, 0, repeat(8, 120), 189),
			core(5, "gfx2d", 0, 52, 46, 0, repeat(16, 160), 433),
			bistCore(6, "sram128k", 0, 22, 18, repeat(6, 240), 355, 0),
			core(7, "l2cacheCtl", 0, 50, 42, 0, repeat(20, 250), 477),
			core(8, "tagRam", 7, 18, 14, 0, repeat(4, 130), 133),
			core(9, "displayIf", 0, 46, 40, 0, repeat(16, 160), 422),
			core(10, "camIf", 0, 38, 34, 0, repeat(12, 140), 399),
			core(11, "jpegCodec", 0, 44, 40, 0, repeat(16, 150), 444),
			core(12, "glueComb", 0, 90, 60, 0, nil, 311),
			bistCore(13, "rom64k", 0, 12, 8, repeat(2, 120), 222, 0),
			core(14, "ioCtrl", 0, 32, 28, 0, repeat(4, 70), 122),
			core(15, "smartcardIf", 0, 20, 16, 0, repeat(2, 50), 95),
			core(16, "dmac", 0, 34, 30, 0, repeat(6, 100), 155),
			core(17, "sysTimers", 0, 24, 18, 0, repeat(2, 42), 83),
			core(18, "memArrayCore18", 0, 0, 0, 0, append([]int{1459}, repeat(45, 260)...), 372),
			core(19, "trim", 0, 623, 0, 0, []int{400}, 1),
		},
	}
	mustValidate(s)
	return s
}

// P93791Like returns the 32-core stand-in for Philips p93791. Core 6 is the
// engineered Fig. 1 core: one 437-bit chain plus 92 chains of 210 bits and
// 260 patterns gives the plateau T(47..64) = 438·260 + 437 = 114317 cycles
// with highest Pareto width 47.
func P93791Like() *soc.SOC {
	s := &soc.SOC{
		Name: "p93791like",
		Cores: []*soc.Core{
			core(1, "nocRouter", 0, 44, 48, 16, repeat(10, 90), 166),
			core(2, "cpu0", 0, 72, 60, 0, repeat(44, 190), 322),
			core(3, "cpu1", 0, 72, 60, 0, repeat(44, 190), 322),
			core(4, "l2slice0", 0, 48, 40, 0, repeat(24, 230), 410),
			core(5, "vectorUnit", 0, 64, 52, 0, repeat(36, 170), 372),
			core(6, "fig1Core6", 0, 109, 32, 0, append([]int{437}, repeat(92, 210)...), 260),
			core(7, "ddrCtl", 0, 56, 48, 0, repeat(20, 200), 400),
			bistCore(8, "sram256k", 0, 24, 20, repeat(8, 260), 332, 0),
			core(9, "pcieRoot", 0, 60, 50, 0, repeat(18, 180), 381),
			core(10, "gbeSwitch", 0, 54, 46, 0, repeat(16, 190), 361),
			core(11, "cryptoEng", 0, 40, 36, 0, repeat(12, 150), 293),
			core(12, "h264Dec", 0, 50, 44, 0, repeat(28, 160), 352),
			core(13, "audioDsp", 0, 38, 34, 0, repeat(10, 140), 274),
			core(14, "glue0", 0, 84, 52, 0, nil, 234),
			bistCore(15, "dpram32k", 0, 16, 12, repeat(4, 180), 254, 1),
			core(16, "usb3Phy", 0, 34, 30, 0, repeat(6, 110), 186),
			core(17, "sataCtl", 0, 36, 32, 0, repeat(8, 120), 205),
			core(18, "ispPipe", 0, 58, 50, 0, repeat(30, 150), 342),
			core(19, "mipiCsi", 0, 28, 24, 0, repeat(4, 90), 147),
			core(20, "ticker", 2, 18, 14, 0, repeat(1, 36), 59),
			core(21, "l2slice1", 0, 48, 40, 0, repeat(24, 230), 410),
			core(22, "spisQuad", 0, 22, 18, 0, repeat(2, 48), 80),
			core(23, "i3cHub", 9, 20, 16, 0, repeat(2, 44), 68),
			bistCore(24, "rom128k", 0, 14, 10, repeat(2, 140), 215, 1),
			core(25, "fabricComb", 0, 96, 58, 0, nil, 303),
			core(26, "gpioWide", 0, 57, 49, 0, nil, 176),
			core(27, "tempSensorIf", 0, 14, 10, 0, repeat(1, 30), 49),
			core(28, "secBoot", 0, 26, 22, 0, repeat(4, 80), 127),
			core(29, "modemDfe", 0, 46, 40, 0, repeat(14, 160), 313),
			core(30, "rtcBlk", 0, 12, 10, 0, repeat(1, 28), 44),
			core(31, "padRing", 0, 68, 38, 0, nil, 137),
			core(32, "trim", 0, 629, 0, 0, []int{400}, 1),
		},
	}
	mustValidate(s)
	return s
}
