#include "core/drivers.h"

#include <memory>
#include <utility>

#include "core/app_analyzer.h"

namespace qoed::core {

UiController::Predicate progress_cycle_done(ViewSignature sig) {
  auto seen_visible = std::make_shared<bool>(false);
  return [sig = std::move(sig), seen_visible](const ui::LayoutTree& tree) {
    auto view = find_view(tree, sig);
    if (!view) return false;
    if (view->visible()) {
      *seen_visible = true;
      return false;
    }
    return *seen_visible;
  };
}

// ---------------------------------------------------------------------------
// Facebook
// ---------------------------------------------------------------------------

FacebookDriver::FacebookDriver(UiController& controller,
                               apps::SocialApp& app)
    : controller_(controller), app_(app) {}

void FacebookDriver::upload_post(apps::PostKind kind, Done done) {
  // Unique timestamp string in the post text — the paper's trick to
  // recognize the posted item in the news feed.
  const std::string tag =
      "qoed-" +
      std::to_string(controller_.device().loop().now().since_start().count()) +
      "-" + std::to_string(next_tag_++);

  controller_.type_text(ViewSignature::by_id("composer"), tag);
  app_.set_compose_kind(kind);  // stands in for compose-screen navigation
  controller_.click(ViewSignature::by_id("post_button"));

  UiController::WaitSpec wait;
  wait.action = std::string("upload_post:") + apps::to_string(kind);
  wait.metadata["tag"] = tag;
  wait.end_when = [tag](const ui::LayoutTree& tree) {
    // Posted content shown: a feed item (or the WebView feed text)
    // containing the tag.
    return tree.find_first([&](const ui::View& v) {
             return (v.view_id() == "feed_item" ||
                     v.view_id() == "news_feed_web") &&
                    v.text().find(tag) != std::string::npos;
           }) != nullptr;
  };
  controller_.begin_wait(std::move(wait), std::move(done));
}

void FacebookDriver::wait_feed_update(Done done) {
  UiController::WaitSpec wait;
  wait.action = "feed_update";
  ViewSignature progress = ViewSignature::by_id("feed_progress");
  wait.start_when = [progress](const ui::LayoutTree& tree) {
    auto v = find_view(tree, progress);
    return v && v->visible();
  };
  wait.end_when = [progress](const ui::LayoutTree& tree) {
    auto v = find_view(tree, progress);
    return v && !v->visible();
  };
  controller_.begin_wait(std::move(wait), std::move(done));
}

void FacebookDriver::pull_to_update(Done done) {
  const char* feed_id =
      app_.config().design == apps::FeedDesign::kWebView ? "news_feed_web"
                                                         : "news_feed";
  controller_.scroll(ViewSignature::by_id(feed_id), -400);

  UiController::WaitSpec wait;
  wait.action = "pull_to_update";
  ViewSignature progress = ViewSignature::by_id("feed_progress");
  wait.start_when = [progress](const ui::LayoutTree& tree) {
    auto v = find_view(tree, progress);
    return v && v->visible();
  };
  wait.end_when = [progress](const ui::LayoutTree& tree) {
    auto v = find_view(tree, progress);
    return v && !v->visible();
  };
  controller_.begin_wait(std::move(wait), std::move(done));
}

// ---------------------------------------------------------------------------
// YouTube
// ---------------------------------------------------------------------------

double VideoWatchResult::rebuffering_ratio() const {
  const double stall = sim::to_seconds(stall_time);
  const double play = sim::to_seconds(play_time);
  return stall + play <= 0 ? 0 : stall / (stall + play);
}

YouTubeDriver::YouTubeDriver(UiController& controller, apps::VideoApp& app)
    : controller_(controller), app_(app) {}

// Video sessions under heavy throttling can spend many minutes loading or
// stalled; waits get a generous deadline so slow conditions are measured,
// not censored.
constexpr sim::Duration kVideoWaitTimeout = sim::minutes(30);

void YouTubeDriver::watch_video(const std::string& query,
                                const std::string& id, Done done) {
  current_ = std::make_shared<VideoWatchResult>();
  current_->video_id = id;

  controller_.type_text(ViewSignature::by_id("search_box"), query);
  controller_.click(ViewSignature::by_id("search_button"));

  UiController::WaitSpec wait;
  wait.action = "video_search";
  wait.timeout = kVideoWaitTimeout;
  wait.end_when = [id](const ui::LayoutTree& tree) {
    return tree.find_first([&](const ui::View& v) {
             return v.view_id() == "video_entry" && v.text() == id;
           }) != nullptr;
  };
  controller_.begin_wait(std::move(wait),
                         [this, id, done = std::move(done)](
                             const BehaviorRecord&) mutable {
                           after_search(id, std::move(done));
                         });
}

void YouTubeDriver::after_search(const std::string& id, Done done) {
  ViewSignature entry;
  entry.view_id = "video_entry";
  entry.text = id;
  const sim::TimePoint click_time = controller_.device().loop().now();
  controller_.click(entry);

  if (!app_.config().ads_enabled) {
    measure_main_loading(click_time, std::move(done));
    return;
  }

  // Pre-roll ad: measure its loading, then skip as soon as allowed (the
  // paper configures the controller to skip, citing that 94% of users do).
  current_->had_ad = true;
  UiController::WaitSpec ad_wait;
  ad_wait.action = "ad_initial_loading";
  ad_wait.timeout = kVideoWaitTimeout;
  ad_wait.end_when = progress_cycle_done(ViewSignature::by_id("player_progress"));
  controller_.begin_wait(
      std::move(ad_wait),
      [this, done = std::move(done)](const BehaviorRecord& rec) mutable {
        current_->ad_loading = rec;
        // Wait for the skip button, then click it.
        UiController::WaitSpec skip_wait;
        skip_wait.action = "ad_skippable";
        skip_wait.timeout = kVideoWaitTimeout;
        skip_wait.end_when = [](const ui::LayoutTree& tree) {
          auto v = tree.find_by_id("skip_ad");
          return v && v->visible();
        };
        controller_.begin_wait(
            std::move(skip_wait),
            [this, done = std::move(done)](const BehaviorRecord&) mutable {
              const sim::TimePoint skip_time =
                  controller_.device().loop().now();
              controller_.click(ViewSignature::by_id("skip_ad"));
              measure_main_loading(skip_time, std::move(done));
            });
      });
}

void YouTubeDriver::measure_main_loading(sim::TimePoint click_time,
                                         Done done) {
  UiController::WaitSpec wait;
  wait.action = "initial_loading";
  wait.timeout = kVideoWaitTimeout;
  wait.end_when = [](const ui::LayoutTree& tree) {
    auto spinner = tree.find_by_id("player_progress");
    auto player = tree.find_by_id("player");
    return spinner && player && !spinner->visible() &&
           player->text() == "playing";
  };
  controller_.begin_wait(
      std::move(wait),
      [this, click_time, done = std::move(done)](
          const BehaviorRecord& rec) mutable {
        current_->initial_loading = rec;
        current_->total_loading =
            controller_.device().loop().now() - click_time;
        playback_started_ = controller_.device().loop().now();
        monitor_playback(std::move(done));
      });
}

void YouTubeDriver::monitor_playback(Done done) {
  arm_stall_watch();

  UiController::WaitSpec complete;
  complete.action = "playback_complete";
  complete.timeout = kVideoWaitTimeout;
  complete.end_when = [](const ui::LayoutTree& tree) {
    auto spinner = tree.find_by_id("player_progress");
    auto player = tree.find_by_id("player");
    return spinner && player && !spinner->visible() &&
           player->text() == "stopped";
  };
  controller_.begin_wait(
      std::move(complete),
      [this, done = std::move(done)](const BehaviorRecord& rec) mutable {
        controller_.cancel_waits("stall");
        current_->completed = !rec.timed_out;
        for (const auto& s : current_->stalls) {
          current_->stall_time += AppLayerAnalyzer::calibrate(s);
        }
        const sim::Duration watched =
            controller_.device().loop().now() - playback_started_;
        current_->play_time = watched - current_->stall_time;
        done(*current_);
      });
}

void YouTubeDriver::arm_stall_watch() {
  UiController::WaitSpec stall;
  stall.action = "stall";
  stall.timeout = kVideoWaitTimeout;
  ViewSignature progress = ViewSignature::by_id("player_progress");
  stall.start_when = [progress](const ui::LayoutTree& tree) {
    auto v = find_view(tree, progress);
    return v && v->visible();
  };
  stall.end_when = [progress](const ui::LayoutTree& tree) {
    auto v = find_view(tree, progress);
    return v && !v->visible();
  };
  controller_.begin_wait(std::move(stall), [this](const BehaviorRecord& rec) {
    if (!rec.timed_out) current_->stalls.push_back(rec);
    arm_stall_watch();  // keep watching until playback completes
  });
}

// ---------------------------------------------------------------------------
// Browser
// ---------------------------------------------------------------------------

BrowserDriver::BrowserDriver(UiController& controller, apps::BrowserApp& app)
    : controller_(controller), app_(app) {}

void BrowserDriver::load_page(const std::string& url, Done done) {
  (void)app_;
  controller_.type_text(ViewSignature::by_id("url_bar"), url);
  controller_.press_enter(ViewSignature::by_id("url_bar"));

  UiController::WaitSpec wait;
  wait.action = "page_load";
  wait.metadata["url"] = url;
  wait.end_when = progress_cycle_done(ViewSignature::by_id("page_progress"));
  controller_.begin_wait(std::move(wait), std::move(done));
}

void BrowserDriver::load_pages(std::vector<std::string> urls,
                               sim::Duration think_time, AllDone done) {
  struct State {
    BrowserDriver* driver;
    std::vector<std::string> urls;
    sim::Duration think_time;
    AllDone done;
    std::vector<BehaviorRecord> records;
    std::size_t index = 0;
  };
  auto state = std::make_shared<State>(
      State{this, std::move(urls), think_time, std::move(done)});
  // The closure holds itself weakly (the pending wait or think-time event
  // owns it), so the chain frees itself after the last page.
  auto step = std::make_shared<std::function<void()>>();
  *step = [state, weak = std::weak_ptr<std::function<void()>>(step)] {
    if (state->index >= state->urls.size()) {
      if (state->done) state->done(state->records);
      return;
    }
    const std::string url = state->urls[state->index++];
    state->driver->load_page(url, [state, step = weak.lock()](
                                      const BehaviorRecord& rec) {
      state->records.push_back(rec);
      state->driver->controller_.device().loop().schedule_after(
          state->think_time, [step] { (*step)(); });
    });
  };
  (*step)();
}

}  // namespace qoed::core
