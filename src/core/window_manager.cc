#include "core/window_manager.h"

#include <algorithm>

namespace dataspread {

WindowManager::WindowManager(InterfaceManager* interface_manager,
                             formula::FormulaEngine* engine,
                             Scheduler* scheduler, int64_t prefetch_margin)
    : interface_manager_(interface_manager),
      engine_(engine),
      scheduler_(scheduler),
      prefetch_margin_(prefetch_margin) {
  interface_manager_->set_visibility_probe(
      [this](const Sheet* sheet, int64_t r0, int64_t c0, int64_t r1,
             int64_t c1) { return IsVisible(sheet, r0, c0, r1, c1); });
}

void WindowManager::SetViewport(const Viewport& viewport) {
  viewport_ = viewport;
  window_moves_ += 1;
  if (viewport_.sheet == nullptr) return;

  // Slide the windows of bindings intersecting the pane. The fetch itself is
  // a task so a background worker can overlap it with interaction.
  for (const auto& binding : interface_manager_->bindings()) {
    TableBinding* b = binding.get();
    if (b->sheet() != viewport_.sheet) continue;
    int64_t region_c0 = b->anchor_col();
    int64_t region_c1 =
        b->anchor_col() +
        static_cast<int64_t>(b->table()->schema().num_columns()) - 1;
    if (region_c1 < viewport_.left || region_c0 >= viewport_.left + viewport_.cols) {
      continue;
    }
    // Positions of the table the pane needs (with the prefetch margin).
    int64_t first_visible = viewport_.top - b->data_row();
    int64_t start = std::max<int64_t>(0, first_visible - prefetch_margin_);
    int64_t count = viewport_.rows + 2 * prefetch_margin_;
    if (first_visible + viewport_.rows < 0 ||
        start >= static_cast<int64_t>(b->table()->num_rows())) {
      continue;  // region not in the pane's row span
    }
    if (static_cast<size_t>(start) == b->window_start() &&
        static_cast<size_t>(count) == b->window_count()) {
      continue;  // already materialized
    }
    scheduler_->EnqueueUnique(
        Priority::kVisible, "binding-window-" + std::to_string(b->id()),
        [im = interface_manager_, id = b->id(), start, count]() {
          if (TableBinding* target = im->FindBinding(id)) {
            (void)target->SetWindow(static_cast<size_t>(start),
                                    static_cast<size_t>(count));
          }
        });
  }

  // Visible-first recalculation: the pane first, everything else behind it.
  formula::FormulaEngine* engine = engine_;
  Viewport vp = viewport_;
  scheduler_->EnqueueUnique(Priority::kVisible, "recalc-window", [engine, vp]() {
    (void)engine->RecalcWindow(vp.sheet, vp.top, vp.left, vp.top + vp.rows - 1,
                               vp.left + vp.cols - 1);
  });
  scheduler_->EnqueueUnique(Priority::kBackground, "recalc-dirty",
                            [engine]() { (void)engine->RecalcDirty(); });
}

}  // namespace dataspread
