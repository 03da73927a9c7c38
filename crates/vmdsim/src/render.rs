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

/// Framebuffer width in pixels.
const WIDTH: usize = 256;
/// Framebuffer height in pixels.
const HEIGHT: usize = 256;
/// Rotation about the vertical axis, radians.
const YAW: f32 = 0.6;
/// Rotation about the horizontal axis, radians.
const PITCH: f32 = 0.3;

/// Result of rendering one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderStats {
    /// Atom points drawn.
    pub atoms_drawn: usize,
    /// Bond lines drawn.
    pub bonds_drawn: usize,
    /// Pixels with non-background color.
    pub pixels_filled: usize,
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

/// Render one frame of `coords` for `system` (atom counts must match),
/// drawing `bonds` as lines over the atoms (pass `&[]` for atoms only).
pub fn render_frame(system: &MolecularSystem, bonds: &[Bond], coords: &[[f32; 3]]) -> RenderStats {
    assert_eq!(system.len(), coords.len(), "coords must match system");
    if ada_telemetry::enabled() {
        // No request to hang a span on: count through a handle resolved
        // once, so the render loop never takes the registry lock.
        static FRAMES: OnceLock<Arc<Counter>> = OnceLock::new();
        FRAMES
            .get_or_init(|| ada_telemetry::global().counter("render.frame"))
            .inc();
    }
    if coords.is_empty() {
        return RenderStats {
            atoms_drawn: 0,
            bonds_drawn: 0,
            pixels_filled: 0,
        };
    }

    // Rotate and project.
    let (sy, cy) = YAW.sin_cos();
    let (sp, cp) = PITCH.sin_cos();
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
    let scale = ((WIDTH as f32 * 0.9) / span_x).min((HEIGHT as f32 * 0.9) / span_y);
    let to_px = |p: (f32, f32)| -> (i64, i64) {
        let x = ((p.0 - min_x) * scale + WIDTH as f32 * 0.05) as i64;
        let y = ((p.1 - min_y) * scale + HEIGHT as f32 * 0.05) as i64;
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

    // The framebuffer (RGBA8 packed into u32), row-major.
    let mut fb = vec![0u32; WIDTH * HEIGHT];
    let mut atoms_drawn = 0usize;
    for (i, &p) in projected.iter().enumerate() {
        let (x, y) = to_px(p);
        if put_pixel(&mut fb, x, y, colors[i]) {
            atoms_drawn += 1;
        }
    }
    for b in bonds {
        let pa = to_px(projected[b.a as usize]);
        let pb = to_px(projected[b.b as usize]);
        draw_line(&mut fb, pa, pb, colors[b.a as usize]);
    }

    RenderStats {
        atoms_drawn,
        bonds_drawn: bonds.len(),
        pixels_filled: fb.iter().filter(|&&p| p != 0).count(),
    }
}

fn put_pixel(fb: &mut [u32], x: i64, y: i64, color: u32) -> bool {
    if x < 0 || y < 0 || x >= WIDTH as i64 || y >= HEIGHT as i64 {
        return false;
    }
    fb[y as usize * WIDTH + x as usize] = color;
    true
}

fn draw_line(fb: &mut [u32], a: (i64, i64), b: (i64, i64), color: u32) {
    // Bresenham.
    let (mut x0, mut y0) = a;
    let (x1, y1) = b;
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    loop {
        put_pixel(fb, x0, y0, color);
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
/// threads (frames are independent); stats are returned per frame.
pub fn render_trajectory(
    system: &MolecularSystem,
    bonds: &[Bond],
    frames: &[ada_mdformats::Frame],
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
                        .map(|f| render_frame(system, bonds, &f.coords))
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
        let stats = render_frame(&sys, &bonds, &frames[0].coords);
        assert!(stats.atoms_drawn > sys.len() / 2);
        assert!(stats.bonds_drawn > 0);
        assert!(stats.pixels_filled > 100);
        assert!(stats.pixels_filled <= WIDTH * HEIGHT);
    }

    #[test]
    fn atoms_only_mode() {
        let (sys, frames, bonds) = workload();
        let with_bonds = render_frame(&sys, &bonds, &frames[0].coords);
        let stats = render_frame(&sys, &[], &frames[0].coords);
        assert_eq!(stats.bonds_drawn, 0);
        assert_eq!(stats.atoms_drawn, with_bonds.atoms_drawn);
        assert!(stats.pixels_filled < with_bonds.pixels_filled);
    }

    #[test]
    fn empty_frame() {
        let sys = MolecularSystem::default();
        let stats = render_frame(&sys, &[], &[]);
        assert_eq!(stats.pixels_filled, 0);
    }

    #[test]
    fn deterministic() {
        let (sys, frames, bonds) = workload();
        let a = render_frame(&sys, &bonds, &frames[1].coords);
        let b = render_frame(&sys, &bonds, &frames[1].coords);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (sys, frames, bonds) = workload();
        let seq: Vec<RenderStats> = frames
            .iter()
            .map(|f| render_frame(&sys, &bonds, &f.coords))
            .collect();
        for threads in [1, 2, 3] {
            let par = render_trajectory(&sys, &bonds, &frames, threads);
            assert_eq!(par, seq, "threads={}", threads);
        }
    }

    #[test]
    fn fewer_atoms_render_fewer_pixels() {
        // The protein-only subset draws strictly less than the full system
        // (the Fig. 1a vs 1b contrast, numerically).
        let (sys, frames, _) = workload();
        let prot_ranges = sys.category_ranges(Category::Protein);
        let prot_sys = sys.subset(&prot_ranges);
        let prot_coords = prot_ranges.gather(&frames[0].coords);
        let full = render_frame(&sys, &[], &frames[0].coords);
        let prot = render_frame(&prot_sys, &[], &prot_coords);
        assert!(prot.atoms_drawn < full.atoms_drawn);
    }
}
