//! Software rendering of molecular frames.
//!
//! A deliberately real (if small) graphics pipeline: rotate the frame,
//! project orthographically, draw atoms as points and bonds as Bresenham
//! lines into an RGBA framebuffer with per-category colors. The per-frame
//! work scales with delivered atoms — the property the platform model's
//! render-cost constant abstracts.

use ada_mdmodel::{Bond, Category, MolecularSystem};
use ada_telemetry::Counter;
use std::sync::{Arc, OnceLock};

/// Drawing style, mirroring VMD's representation methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrawStyle {
    /// One pixel per atom, bonds as lines (VMD "Lines").
    #[default]
    Lines,
    /// Atoms only, no bonds (VMD "Points").
    Points,
    /// Filled discs scaled by covalent radius (VMD "VDW").
    Vdw,
    /// Thick bonds + small atom discs (VMD "Licorice").
    Licorice,
}

/// Rendering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Framebuffer width in pixels.
    pub width: usize,
    /// Framebuffer height in pixels.
    pub height: usize,
    /// Rotation about the vertical axis, radians.
    pub yaw: f32,
    /// Rotation about the horizontal axis, radians.
    pub pitch: f32,
    /// Draw bonds as lines (atoms-only when false).
    pub draw_bonds: bool,
    /// Representation style.
    pub style: DrawStyle,
}

impl Default for RenderOptions {
    fn default() -> RenderOptions {
        RenderOptions {
            width: 256,
            height: 256,
            yaw: 0.6,
            pitch: 0.3,
            draw_bonds: true,
            style: DrawStyle::Lines,
        }
    }
}

/// Result of rendering one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderStats {
    /// Atom points drawn.
    pub atoms_drawn: usize,
    /// Bond lines drawn.
    pub bonds_drawn: usize,
    /// Pixels with non-background color.
    pub pixels_filled: usize,
    /// The framebuffer (RGBA8 packed into u32), row-major.
    pub framebuffer: Vec<u32>,
}

impl RenderStats {
    /// Export the framebuffer as a binary PPM (P6) image of the given
    /// dimensions (`width × height` must equal the framebuffer length).
    /// Background pixels come out black.
    pub fn to_ppm(&self, width: usize, height: usize) -> Vec<u8> {
        assert_eq!(width * height, self.framebuffer.len(), "dimension mismatch");
        let mut out = Vec::with_capacity(32 + self.framebuffer.len() * 3);
        out.extend_from_slice(format!("P6\n{} {}\n255\n", width, height).as_bytes());
        for &px in &self.framebuffer {
            out.push((px >> 16) as u8); // R
            out.push((px >> 8) as u8); // G
            out.push(px as u8); // B
        }
        out
    }
}

fn color_of(category: Category) -> u32 {
    match category {
        Category::Protein => 0xFF4C_8BF5,     // blue
        Category::Water => 0xFF9E_D9E8,       // pale cyan
        Category::Lipid => 0xFFE8_C468,       // tan
        Category::Ion => 0xFF77_DD77,         // green
        Category::NucleicAcid => 0xFFBA_68C8, // purple
        Category::Ligand => 0xFFFF_7043,      // orange
        Category::Other => 0xFFBD_BDBD,       // grey
    }
}

/// Render one frame of `coords` for `system` (atom counts must match).
pub fn render_frame(
    system: &MolecularSystem,
    bonds: &[Bond],
    coords: &[[f32; 3]],
    opts: &RenderOptions,
) -> RenderStats {
    assert_eq!(system.len(), coords.len(), "coords must match system");
    if ada_telemetry::enabled() {
        // No request to hang a span on: count through a handle resolved
        // once, so the render loop never takes the registry lock.
        static FRAMES: OnceLock<Arc<Counter>> = OnceLock::new();
        FRAMES
            .get_or_init(|| ada_telemetry::global().counter("render.frame"))
            .inc();
    }
    let mut fb = vec![0u32; opts.width * opts.height];
    if coords.is_empty() {
        return RenderStats {
            atoms_drawn: 0,
            bonds_drawn: 0,
            pixels_filled: 0,
            framebuffer: fb,
        };
    }

    // Rotate and project.
    let (sy, cy) = opts.yaw.sin_cos();
    let (sp, cp) = opts.pitch.sin_cos();
    let projected: Vec<(f32, f32)> = coords
        .iter()
        .map(|c| {
            let x1 = c[0] * cy + c[2] * sy;
            let z1 = -c[0] * sy + c[2] * cy;
            let y1 = c[1] * cp - z1 * sp;
            (x1, y1)
        })
        .collect();

    // Fit to the framebuffer with a 5 % margin.
    let (mut min_x, mut max_x) = (f32::INFINITY, f32::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f32::INFINITY, f32::NEG_INFINITY);
    for &(x, y) in &projected {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    let span_x = (max_x - min_x).max(1e-6);
    let span_y = (max_y - min_y).max(1e-6);
    let scale = ((opts.width as f32 * 0.9) / span_x).min((opts.height as f32 * 0.9) / span_y);
    let to_px = |p: (f32, f32)| -> (i64, i64) {
        let x = ((p.0 - min_x) * scale + opts.width as f32 * 0.05) as i64;
        let y = ((p.1 - min_y) * scale + opts.height as f32 * 0.05) as i64;
        (x, y)
    };

    // Category color per atom (residue-granular lookup flattened once).
    let mut colors = vec![0u32; system.len()];
    for res in &system.residues {
        let c = color_of(res.category());
        for slot in &mut colors[res.atom_start..res.atom_end] {
            *slot = c;
        }
    }

    let mut atoms_drawn = 0usize;
    for (i, &p) in projected.iter().enumerate() {
        let (x, y) = to_px(p);
        let drew = match opts.style {
            DrawStyle::Lines | DrawStyle::Points => {
                put_pixel(&mut fb, opts.width, opts.height, x, y, colors[i])
            }
            DrawStyle::Vdw => {
                let r_px = (system.atoms[i].element.covalent_radius_nm() * 2.0 * scale)
                    .clamp(1.0, 12.0) as i64;
                draw_disc(&mut fb, opts.width, opts.height, x, y, r_px, colors[i])
            }
            DrawStyle::Licorice => draw_disc(&mut fb, opts.width, opts.height, x, y, 1, colors[i]),
        };
        if drew {
            atoms_drawn += 1;
        }
    }

    let mut bonds_drawn = 0usize;
    let bonds_visible =
        opts.draw_bonds && matches!(opts.style, DrawStyle::Lines | DrawStyle::Licorice);
    if bonds_visible {
        let thick = opts.style == DrawStyle::Licorice;
        for b in bonds {
            let pa = to_px(projected[b.a as usize]);
            let pb = to_px(projected[b.b as usize]);
            draw_line(
                &mut fb,
                opts.width,
                opts.height,
                pa,
                pb,
                colors[b.a as usize],
            );
            if thick {
                // A second, offset stroke approximates bond thickness.
                draw_line(
                    &mut fb,
                    opts.width,
                    opts.height,
                    (pa.0 + 1, pa.1),
                    (pb.0 + 1, pb.1),
                    colors[b.a as usize],
                );
            }
            bonds_drawn += 1;
        }
    }

    let pixels_filled = fb.iter().filter(|&&p| p != 0).count();
    RenderStats {
        atoms_drawn,
        bonds_drawn,
        pixels_filled,
        framebuffer: fb,
    }
}

fn put_pixel(fb: &mut [u32], w: usize, h: usize, x: i64, y: i64, color: u32) -> bool {
    if x < 0 || y < 0 || x >= w as i64 || y >= h as i64 {
        return false;
    }
    fb[y as usize * w + x as usize] = color;
    true
}

fn draw_disc(fb: &mut [u32], w: usize, h: usize, cx: i64, cy: i64, r: i64, color: u32) -> bool {
    let mut any = false;
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy <= r * r {
                any |= put_pixel(fb, w, h, cx + dx, cy + dy, color);
            }
        }
    }
    any
}

fn draw_line(fb: &mut [u32], w: usize, h: usize, a: (i64, i64), b: (i64, i64), color: u32) {
    // Bresenham.
    let (mut x0, mut y0) = a;
    let (x1, y1) = b;
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    loop {
        put_pixel(fb, w, h, x0, y0, color);
        if x0 == x1 && y0 == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x0 += sx;
        }
        if e2 <= dx {
            err += dx;
            y0 += sy;
        }
    }
}

/// Render every frame of a trajectory in parallel over `nthreads` scoped
/// threads (frames are independent). Framebuffers are dropped;
/// aggregate stats are returned per frame.
pub fn render_trajectory(
    system: &MolecularSystem,
    bonds: &[Bond],
    frames: &[ada_mdformats::Frame],
    opts: &RenderOptions,
    nthreads: usize,
) -> Vec<RenderStats> {
    if frames.is_empty() {
        return Vec::new();
    }
    let nthreads = nthreads.max(1).min(frames.len());
    let chunk = frames.len().div_ceil(nthreads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = frames
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || -> Vec<RenderStats> {
                    part.iter()
                        .map(|f| {
                            let mut stats = render_frame(system, bonds, &f.coords, opts);
                            stats.framebuffer = Vec::new(); // keep memory flat
                            stats
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_mdmodel::infer_bonds;

    fn workload() -> (MolecularSystem, Vec<ada_mdformats::Frame>, Vec<Bond>) {
        let w = ada_workload::gpcr_workload(1200, 4, 21);
        let bonds = infer_bonds(
            &w.system,
            &w.system.coords,
            ada_mdmodel::bonds::DEFAULT_TOLERANCE,
        );
        (w.system, w.trajectory.frames, bonds)
    }

    #[test]
    fn renders_nonempty_image() {
        let (sys, frames, bonds) = workload();
        let stats = render_frame(&sys, &bonds, &frames[0].coords, &RenderOptions::default());
        assert!(stats.atoms_drawn > sys.len() / 2);
        assert!(stats.bonds_drawn > 0);
        assert!(stats.pixels_filled > 100);
        assert_eq!(stats.framebuffer.len(), 256 * 256);
    }

    #[test]
    fn atoms_only_mode() {
        let (sys, frames, bonds) = workload();
        let opts = RenderOptions {
            draw_bonds: false,
            ..RenderOptions::default()
        };
        let stats = render_frame(&sys, &bonds, &frames[0].coords, &opts);
        assert_eq!(stats.bonds_drawn, 0);
        assert!(stats.atoms_drawn > 0);
    }

    #[test]
    fn empty_frame() {
        let sys = MolecularSystem::default();
        let stats = render_frame(&sys, &[], &[], &RenderOptions::default());
        assert_eq!(stats.pixels_filled, 0);
    }

    #[test]
    fn deterministic() {
        let (sys, frames, bonds) = workload();
        let a = render_frame(&sys, &bonds, &frames[1].coords, &RenderOptions::default());
        let b = render_frame(&sys, &bonds, &frames[1].coords, &RenderOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (sys, frames, bonds) = workload();
        let opts = RenderOptions::default();
        let seq: Vec<RenderStats> = frames
            .iter()
            .map(|f| {
                let mut s = render_frame(&sys, &bonds, &f.coords, &opts);
                s.framebuffer = Vec::new();
                s
            })
            .collect();
        for threads in [1, 2, 3] {
            let par = render_trajectory(&sys, &bonds, &frames, &opts, threads);
            assert_eq!(par, seq, "threads={}", threads);
        }
    }

    #[test]
    fn ppm_export_wellformed() {
        let (sys, frames, bonds) = workload();
        let stats = render_frame(&sys, &bonds, &frames[0].coords, &RenderOptions::default());
        let ppm = stats.to_ppm(256, 256);
        assert!(ppm.starts_with(b"P6\n256 256\n255\n"));
        let header_len = b"P6\n256 256\n255\n".len();
        assert_eq!(ppm.len(), header_len + 256 * 256 * 3);
        // Some pixel is non-black.
        assert!(ppm[header_len..].iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic]
    fn ppm_dimension_mismatch_panics() {
        let (sys, frames, bonds) = workload();
        let stats = render_frame(&sys, &bonds, &frames[0].coords, &RenderOptions::default());
        stats.to_ppm(100, 100);
    }

    #[test]
    fn vdw_fills_more_pixels_than_points() {
        let (sys, frames, bonds) = workload();
        let points = render_frame(
            &sys,
            &bonds,
            &frames[0].coords,
            &RenderOptions {
                style: DrawStyle::Points,
                ..RenderOptions::default()
            },
        );
        let vdw = render_frame(
            &sys,
            &bonds,
            &frames[0].coords,
            &RenderOptions {
                style: DrawStyle::Vdw,
                ..RenderOptions::default()
            },
        );
        assert!(vdw.pixels_filled > points.pixels_filled);
        assert_eq!(vdw.bonds_drawn, 0); // VDW hides bonds
    }

    #[test]
    fn licorice_draws_thick_bonds() {
        let (sys, frames, bonds) = workload();
        let lines = render_frame(&sys, &bonds, &frames[0].coords, &RenderOptions::default());
        let licorice = render_frame(
            &sys,
            &bonds,
            &frames[0].coords,
            &RenderOptions {
                style: DrawStyle::Licorice,
                ..RenderOptions::default()
            },
        );
        assert_eq!(licorice.bonds_drawn, lines.bonds_drawn);
        assert!(licorice.pixels_filled >= lines.pixels_filled);
    }

    #[test]
    fn fewer_atoms_render_fewer_pixels() {
        // The protein-only subset draws strictly less than the full system
        // (the Fig. 1a vs 1b contrast, numerically).
        let (sys, frames, _) = workload();
        let prot_ranges = sys.category_ranges(Category::Protein);
        let prot_sys = sys.subset(&prot_ranges);
        let prot_coords = prot_ranges.gather(&frames[0].coords);
        let full = render_frame(&sys, &[], &frames[0].coords, &RenderOptions::default());
        let prot = render_frame(&prot_sys, &[], &prot_coords, &RenderOptions::default());
        assert!(prot.atoms_drawn < full.atoms_drawn);
    }
}
